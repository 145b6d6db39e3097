"""Experiment runner: configurations, the probe-count sweep, the
outcome-count sweep and the homodyne experiment, with deterministic
seeding, one worker pool per run and CSV emission.

Determinism contract: every task derives its generator from
(master seed, stream tag, sweep coordinates, ensemble index), so output
bytes do not depend on the worker count or scheduling order.
"""

import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import pathlib
import signal
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import homodyne, matlib, protocols, qstate

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepResult",
    "Cell",
    "CSV_HEADER",
    "cells",
    "run_sweep_probes",
    "run_sweep_outcomes",
    "run_homodyne",
]

CSV_HEADER = "d,n,m,M,seed,ensemble,e2_std,e2_pat,ratio"

# stream tags keep rng draws of different experiments disjoint
_TAG_PROBE_SWEEP = 1
_TAG_OUTCOME_PROBES = 2
_TAG_OUTCOME_CELL = 3
_TAG_HOMODYNE = 4
_TAG_SELFTEST = 5  # drawn by tomolin.selftest

_MAX_REDRAWS = 100


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run; JSON documents map onto the fields
    one-to-one and CLI flags override individual entries."""

    experiment: str = "sweep-probes"
    d: int = 4                      # Hilbert dimension, or Fock truncation for homodyne
    m_values: tuple = (18, 20, 24)
    M_values: tuple = (18, 20, 22, 24, 30, 60)
    noise_ratio_patterns: float = 0.03
    noise_ratio_data: float = 0.06
    ensembles: int = 50
    trials: int = 500
    seed: int = 42
    out: str | None = None
    workers: int = 1
    rtol: float | None = None
    state_ensemble: str = "hs"      # hs | pure
    eta: float = 0.8
    dx: float = 0.1
    x_max: float = 3.0
    wigner_span: float = 5.0
    wigner_points: int = 201
    wigner_export_m: tuple | None = None
    selftest_count: int = 100

    @property
    def n_params(self) -> int:
        return self.d * self.d - 1

    def __post_init__(self):
        """Store a JSON list as a tuple, so every config compares and hashes
        the same however it was built.  Then check every field against its
        annotated type and its bound, then the rules that tie fields
        together; raise ConfigError otherwise, so a config that exists is
        valid."""
        for name, (base, _) in _FIELD_TYPES.items():
            if base is tuple and isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, (base, nullable) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and nullable:
                continue
            is_type, type_text = _TYPE_CHECKS[base]
            if not is_type(value):
                raise ConfigError(f"{name} must be {type_text}, got {value!r}")
            in_bounds, bound_text = _FIELD_BOUNDS.get(name, (None, None))
            if in_bounds is not None and not in_bounds(value):
                raise ConfigError(f"{name} must be {bound_text}, got {value!r}")
        if self.experiment in ("sweep-probes", "sweep-outcomes") and min(self.m_values) < self.d:
            raise ConfigError(f"square-root measurements need m >= d = {self.d}")
        if self.experiment == "homodyne" and self.d < 3:
            raise ConfigError("homodyne needs d >= 3 for its three-component signal")
        if self.experiment in ("sweep-outcomes", "homodyne") and len(self.M_values) != 1:
            raise ConfigError(f"{self.experiment} expects exactly one M value")
        if self.wigner_export_m is not None and not set(self.wigner_export_m) <= set(self.m_values):
            raise ConfigError(f"wigner_export_m {list(self.wigner_export_m)} names an m "
                              f"outside m_values {list(self.m_values)}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def _annotation(tp) -> tuple:
    """(base type, whether None is allowed) of an annotation such as int or
    float | None."""
    args = typing.get_args(tp)
    if not args:
        return tp, False
    return next(a for a in args if a is not type(None)), type(None) in args


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _is_grid(values) -> bool:
    return bool(values) and min(values) >= 1 and len(set(values)) == len(values)


# field name -> (base type, None allowed), from the annotations
_FIELD_TYPES = {f.name: _annotation(f.type) for f in fields(ExperimentConfig)}

# base type -> (test, what a value must be); bools are not numbers here
_TYPE_CHECKS = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, tuple) and all(map(_is_int, v)), "a list of integers"),
}

# field name -> (test, what a value must be), applied once the type is right
_FIELD_BOUNDS = {
    "experiment": (lambda v: v in ("sweep-probes", "sweep-outcomes", "homodyne", "selftest"),
                   "sweep-probes, sweep-outcomes, homodyne or selftest"),
    "d": (lambda v: v >= 2, ">= 2"),
    "m_values": (_is_grid, "nonempty and positive, with no entry repeated"),
    "M_values": (_is_grid, "nonempty and positive, with no entry repeated"),
    "noise_ratio_patterns": (lambda v: v >= 0, ">= 0"),
    "noise_ratio_data": (lambda v: v >= 0, ">= 0"),
    "ensembles": (lambda v: v >= 1, ">= 1"),
    "trials": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "workers": (lambda v: v >= 1, ">= 1"),
    "rtol": (lambda v: 0 < v < 1, "null or in (0, 1)"),
    "state_ensemble": (lambda v: v in ("hs", "pure"), "hs or pure"),
    "eta": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "dx": (lambda v: v > 0, "> 0"),
    "x_max": (lambda v: v > 0, "> 0"),
    "wigner_span": (lambda v: v > 0, "> 0"),
    "wigner_points": (lambda v: v >= 2, ">= 2"),
    "wigner_export_m": (lambda v: len(set(v)) == len(v), "a list with no entry repeated"),
    "selftest_count": (lambda v: v >= 1, ">= 1"),
}


# (m, M) grid of each experiment where it differs from the ExperimentConfig
# defaults, which are the sweep-probes grid; in config-document form
DEFAULT_GRIDS = {
    "sweep-outcomes": dict(m_values=list(range(16, 61, 4)), M_values=[30]),
    "homodyne": dict(m_values=list(range(12, 49)), M_values=[40]),
}

# the homodyne config that --full-scale sets over the default grid
FULL_SCALE_HOMODYNE = dict(d=6, M_values=[100], m_values=list(range(30, 131, 2)), ensembles=20)


def read_config_document(path: str) -> dict:
    """The JSON object of a config file, unvalidated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


@dataclass(frozen=True)
class SweepResult:
    """One CSV row: MSE statistics of a single measurement ensemble at one
    sweep point, regenerable from (seed, m, M, ensemble) and the config."""

    d: int
    n: int
    m: int
    M: int
    seed: int
    ensemble: int
    e2_std: float
    e2_pat: float

    @property
    def ratio(self) -> float:
        return self.e2_std / self.e2_pat if self.e2_pat > 0 else np.inf

    def csv_row(self) -> str:
        return (
            f"{self.d},{self.n},{self.m},{self.M},{self.seed},{self.ensemble},"
            f"{self.e2_std:.12e},{self.e2_pat:.12e},{self.ratio:.12e}"
        )


def _rng(seed: int, *key: int):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _draw_srm_detector(d: int, m: int, rng):
    for _ in range(_MAX_REDRAWS):
        try:
            kets = qstate.haar_random_pure(d, rng, size=m)
            povm = qstate.square_root_measurement(kets)
            return qstate.povm_to_affine(povm)
        except qstate.RankDeficientGramError:
            continue
    raise RuntimeError(f"square-root measurement redraw budget exhausted (d={d}, m={m})")


def _inversion_matrices(cfg: ExperimentConfig, probes, patterns) -> tuple:
    """(A_s, A_p) of a sweep point."""
    return (protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol),
            protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol))


class Cell(typing.NamedTuple):
    """The draws of one (m, M, ensemble) point of an experiment."""

    M: int
    invs: tuple          # (A_s, A_p), (n + 1, m) each
    data: np.ndarray     # (m, trials) noisy detector responses
    truth: np.ndarray    # (n, trials) Bloch columns, or (n, 1) for homodyne
    detector: np.ndarray  # (m, n + 1) detector matrix D, shared along M


def _sweep_cells(cfg: ExperimentConfig, m: int, rng, probes=None) -> list:
    """The cells of a random square-root measurement at every M.

    The measurement, trial states and data noise are drawn once and shared
    along M.  Without a given probe set, one is drawn at max(M) after the
    measurement and prefix-sliced, so growing M literally adds probes."""
    detector = _draw_srm_detector(cfg.d, m, rng)
    if probes is None:
        probes = protocols.ProbeSet.from_blochs(
            qstate.random_blochs(cfg.d, max(cfg.M_values), rng, cfg.state_ensemble))
    patterns = protocols.collect_patterns(detector, probes, cfg.noise_ratio_patterns, rng)
    truth = qstate.random_blochs(cfg.d, cfg.trials, rng)
    data = protocols.trial_data(detector, truth, cfg.noise_ratio_data, rng)
    return [Cell(M, _inversion_matrices(cfg, probes.prefix(M), patterns.prefix(M)), data, truth,
                 detector) for M in cfg.M_values]


@functools.lru_cache(maxsize=None)
def _outcome_probes(seed: int, d: int, M: int, ensemble: int,
                    state_ensemble: str) -> protocols.ProbeSet:
    """The probe set of an outcome-sweep ensemble, drawn from a stream that
    ignores m.  Memoised, so each process draws it, and computes its R+,
    at most once; run_sweep_outcomes clears the memo when it starts."""
    rng = _rng(seed, _TAG_OUTCOME_PROBES, ensemble)
    return protocols.ProbeSet.from_blochs(qstate.random_blochs(d, M, rng, state_ensemble))


def _homodyne_probes(cfg: ExperimentConfig, rng) -> protocols.ProbeSet:
    # coherent probes uniform in area over the disk |alpha| < 0.8
    M = cfg.M_values[0]
    radii = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, M))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, M))
    kets = homodyne.coherent_state_fock(radii * phases, cfg.d)
    rhos = np.einsum("mi,mj->mij", kets, kets.conj())
    return protocols.ProbeSet.from_blochs(qstate.state_to_bloch(rhos).T)


def _homodyne_cells(cfg: ExperimentConfig, m: int, rng) -> list:
    """The one cell of a random quadrature set with coherent probe patterns
    and repeated noisy data of the fixed benchmark signal.  The inversions
    draw nothing, so they are built, and the effects, probes and patterns
    freed, before the (m, trials) data are drawn; the (m, n + 1) detector
    matrix D is kept in the cell."""
    _, effects = homodyne.homodyne_measurement(m, cfg.eta, rng, cfg.d,
                                               dx=cfg.dx, x_max=cfg.x_max)
    detector = qstate.povm_to_affine(effects)
    del effects
    probes = _homodyne_probes(cfg, rng)
    patterns = protocols.collect_patterns(detector, probes, cfg.noise_ratio_patterns, rng)
    invs = _inversion_matrices(cfg, probes, patterns)
    del probes, patterns
    signal = homodyne.true_signal(cfg.d)
    r_true = qstate.state_to_bloch(np.outer(signal, signal.conj()))
    # every trial measures the same state: compute its response once
    repeated = np.broadcast_to(qstate.affine_response(detector, r_true)[:, None],
                               (m, cfg.trials))
    data = protocols.add_noise(repeated, cfg.noise_ratio_data, rng)
    return [Cell(cfg.M_values[0], invs, data, r_true[:, None], detector)]


def cells(cfg: ExperimentConfig, m: int, ensemble: int) -> list:
    """The cells of one ensemble of cfg's experiment at m, one per M, drawn
    exactly as a run draws them from (seed, stream tag, m, ensemble), with
    BLAS on one thread as in a run, so with a run's bits."""
    with _one_blas_thread():
        if cfg.experiment == "sweep-probes":
            return _sweep_cells(cfg, m, _rng(cfg.seed, _TAG_PROBE_SWEEP, m, ensemble))
        if cfg.experiment == "sweep-outcomes":
            probes = _outcome_probes(cfg.seed, cfg.d, cfg.M_values[0], ensemble, cfg.state_ensemble)
            return _sweep_cells(cfg, m, _rng(cfg.seed, _TAG_OUTCOME_CELL, m, ensemble), probes)
        if cfg.experiment == "homodyne":
            return _homodyne_cells(cfg, m, _rng(cfg.seed, _TAG_HOMODYNE, m, ensemble))
    raise ConfigError(f"experiment {cfg.experiment!r} has no cells")


def _task(cfg: ExperimentConfig, m: int, ensemble: int) -> list:
    """The CSV rows of one ensemble at m: the MSEs of both protocols in
    each cell.  Overflow warnings are silenced, since a non-finite pattern
    or MSE raises its own error."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [SweepResult(cfg.d, cfg.n_params, m, cell.M, cfg.seed, ensemble,
                            *(protocols.batch_mse(inv, cell.data, cell.truth)
                              for inv in cell.invs))
                for cell in cells(cfg, m, ensemble)]


def _mean_estimates(cfg: ExperimentConfig, m: int) -> dict:
    """Estimates of both protocols from the trial-averaged data of ensemble
    0 at m, recomputed from the cell's key; None where an estimate is
    degenerate.  The cell's arrays are freed on return."""
    (cell,) = cells(cfg, m, 0)
    mean = cell.data.mean(axis=1, keepdims=True)
    estimates = {}
    for kind, inv in zip(("standard", "pattern"), cell.invs):
        r_hat, valid = protocols.estimate_batch(inv, mean)
        estimates[kind] = r_hat[:, 0] if valid[0] else None
    return estimates


def _metadata(cfg: ExperimentConfig) -> dict:
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in ((f.name, getattr(cfg, f.name)) for f in fields(cfg))}


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a text file that replaces path once the block completes.  It is
    written to path + ".tmp", so path never holds a partial file, and
    removed if the block raises.  Only a run's parent process writes these
    files, so a rerun after a kill overwrites a leftover .tmp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# settings that may differ between a run and its resumption
_RESUME_FREE_KEYS = ("out", "workers")


class _OutputFiles:
    """The output CSV of a run, cfg.out, and its .meta.json.

    Entering reads an existing CSV once: its header, the keys (m, M,
    ensemble) of its complete lines into `done`, and the end of its last
    complete line, one that ends in a newline.  These are refused with
    ConfigError before either file is touched: a CSV whose first line is
    not CSV_HEADER, an existing .meta.json that records another config when
    rows are resumed (only out and workers may differ), and a complete line
    after the header that is not a row of this run (_row_key) or repeats
    the key of an earlier one, with or without a .meta.json.  Then the
    .meta.json is written, and the CSV is opened for append after cutting
    off an unterminated last line left by an interrupted run, or written
    anew with its header.  An OSError while either file is opened, such as
    a missing directory, also becomes ConfigError.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.done = set()
        self.fh = None

    def __enter__(self):
        if self.cfg.out is not None:
            try:
                self._open(self.cfg.out)
            except OSError as exc:
                raise ConfigError(f"cannot use output {self.cfg.out}: {exc}") from exc
        return self

    def __exit__(self, *exc_info):
        if self.fh is not None:
            self.fh.close()

    def _open(self, path: str) -> None:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            blob = b""
        end = blob.rfind(b"\n") + 1
        lines = blob[:end].decode("utf-8", "replace").splitlines()
        if lines and lines[0] != CSV_HEADER:
            raise ConfigError(f"cannot resume {path}: its first line is not the header {CSV_HEADER}")
        if lines[1:]:
            self._check_metadata(path + ".meta.json")
        for line in lines[1:]:
            key = self._row_key(line)
            if key in self.done:
                raise ConfigError(f"cannot resume {path}: {line!r} repeats the (m, M, ensemble) "
                                  f"{key} of an earlier row")
            self.done.add(key)
        # the .meta.json first: once the CSV is open nothing else can fail
        with _replacing(path + ".meta.json") as fh:
            json.dump(_metadata(self.cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if self.done:
            os.truncate(path, end)
            self.fh = open(path, "a", encoding="utf-8", newline="")
        else:
            self.fh = open(path, "w", encoding="utf-8", newline="")
            self.fh.write(CSV_HEADER + "\n")

    def _row_key(self, line: str) -> tuple:
        """(m, M, ensemble) of a complete line, which must be a row of this
        run: six integer keys, with d, n and seed the config's and m, M and
        ensemble on its grid, then two finite MSEs >= 0 and a ratio >= 0,
        which may be infinite."""
        cfg = self.cfg
        parts = line.split(",")
        try:  # the unpacking also refuses a line without exactly nine fields
            d, n, m, M, seed, ensemble, e2_std, e2_pat, ratio = (*map(int, parts[:6]),
                                                                 *map(float, parts[6:]))
        except ValueError:
            raise ConfigError(f"cannot resume {cfg.out}: malformed row {line!r}") from None
        if not (all(math.isfinite(e) and e >= 0 for e in (e2_std, e2_pat)) and ratio >= 0):
            raise ConfigError(f"cannot resume {cfg.out}: {line!r} holds an MSE that is not "
                              f"finite and >= 0, or a ratio that is NaN or negative")
        if ((d, n, seed) != (cfg.d, cfg.n_params, cfg.seed) or m not in cfg.m_values
                or M not in cfg.M_values or ensemble not in range(cfg.ensembles)):
            raise ConfigError(f"cannot resume {cfg.out}: {line!r} is not a row of this run (d "
                              f"{cfg.d}, seed {cfg.seed}, m, M, ensemble on its grid)")
        return m, M, ensemble

    def _check_metadata(self, meta_path: str) -> None:
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                old = json.load(fh)
        except FileNotFoundError:
            return
        except ValueError as exc:
            raise ConfigError(f"cannot resume {self.cfg.out}: unreadable {meta_path}: {exc}") from exc
        if not isinstance(old, dict):
            raise ConfigError(f"cannot resume {self.cfg.out}: {meta_path} is not a JSON object")
        new = _metadata(self.cfg)
        changed = sorted(key for key in set(old) | set(new)
                         if key not in _RESUME_FREE_KEYS and old.get(key) != new.get(key))
        if changed:
            diffs = ", ".join(f"{key} {old.get(key)!r} -> {new.get(key)!r}" for key in changed)
            raise ConfigError(f"cannot resume {self.cfg.out}, written with a different config "
                              f"({diffs}); use another --out or remove the file")

    def write_rows(self, rows) -> None:
        if self.fh is not None:
            for row in rows:
                self.fh.write(row.csv_row() + "\n")
            self.fh.flush()


@functools.lru_cache(maxsize=None)
def _bundled_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when numpy carries none."""
    for path in (pathlib.Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        return get_threads, set_threads
    return None


def _set_blas_threads(count: int):
    """Set the thread count of numpy's bundled OpenBLAS and return the one
    it replaces; without the bundled library, do nothing and return None."""
    blas = _bundled_openblas()
    if blas is None:
        return None
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(count)
    return previous


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _init_worker(parent) -> None:
    """Start a pool worker: BLAS on one thread and, on Linux, a SIGTERM when
    the parent dies, so that a killed run leaves no worker behind.  Linux
    sends it when the thread that forked the worker ends; pool.map submits,
    and so starts the workers, from the main thread.  A worker whose parent
    died before the signal was armed sees another parent pid and exits.
    parent is the pid of the forking process, or None when the workers are
    not forked from it."""
    _set_blas_threads(1)
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if parent is not None and os.getppid() != parent:
        os._exit(1)


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, in this
    process and in the pool workers started there, and restore the previous
    count on exit.  The thread count can move the last bit of a result, so
    output bytes are fixed only at a fixed count.  Another BLAS needs its
    own thread variable set to 1."""
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


def _cell_results(cfg: ExperimentConfig, keys):
    """Yield _task(cfg, m, ensemble) for each key, in key order: in this
    process at one worker, otherwise from one pool that serves the whole
    run, so later cells are already queued while earlier ones are written."""
    if cfg.workers == 1 or not keys:
        for key in keys:
            yield _task(cfg, *key)
        return
    # imported here, so that a run on one worker loads no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    parent = os.getpid() if multiprocessing.get_start_method() == "fork" else None
    # at most one worker per cell: a forked pool starts all of its workers
    # at the first submit
    workers = min(cfg.workers, len(keys))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(parent,)) as pool:
        yield from pool.map(functools.partial(_task, cfg), *zip(*keys))


def _run_grid(cfg: ExperimentConfig, experiment: str):
    """Run _task(cfg, m, ensemble) -> rows over the (m, ensemble) grid,
    skipping cells whose rows cfg.out already holds, and write and return
    the new rows in (m, M, ensemble) order, with BLAS on one thread.

    A config made for another experiment, and an output that _OutputFiles
    refuses, raise ConfigError before anything is written.
    """
    if cfg.experiment != experiment:
        raise ConfigError(f"a config for experiment {cfg.experiment!r} cannot run {experiment}")
    results = []
    with _one_blas_thread(), _OutputFiles(cfg) as output:
        done = output.done
        keys = [(m, e) for m in cfg.m_values for e in range(cfg.ensembles)
                if any((m, M, e) not in done for M in cfg.M_values)]
        keyed = zip(keys, _cell_results(cfg, keys))
        for m, m_results in itertools.groupby(keyed, key=lambda item: item[0][0]):
            m_rows = [row for _, rows in m_results for row in rows
                      if (m, row.M, row.ensemble) not in done]
            for M in cfg.M_values:
                point_rows = [row for row in m_rows if row.M == M]
                output.write_rows(point_rows)
                results.extend(point_rows)
    return results


def run_sweep_probes(cfg: ExperimentConfig):
    """Performance-ratio sweep over the probe count M at fixed outcome
    counts; one CSV row per (m, M, ensemble)."""
    return _run_grid(cfg, "sweep-probes")


def run_sweep_outcomes(cfg: ExperimentConfig):
    """MSE sweep over the outcome count m at a fixed probe count M.

    Each ensemble's probe set is shared across m: every process, this one
    or a pool worker, draws it at most once in a run."""
    _outcome_probes.cache_clear()
    return _run_grid(cfg, "sweep-outcomes")


def _wigner_csv(path: str, axis: np.ndarray, values: np.ndarray) -> None:
    # values are a Wigner grid over axis x axis; the axis strings are
    # formatted once and reused for every point, and the values are turned
    # into Python floats one row at a time.  A non-finite value raises
    # FloatingPointError, and path is then left as it was
    points = [f"{v:.12e}" for v in axis.tolist()]
    with _replacing(path) as fh:
        fh.write("x,p,w\n")
        for x, row in zip(points, values):
            if not np.isfinite(row).all():
                raise FloatingPointError(f"the Wigner grid of {path} is not finite")
            fh.write("".join(f"{x},{p},{w:.12e}\n" for p, w in zip(points, row.tolist())))


def run_homodyne(cfg: ExperimentConfig):
    """Homodyne MSE-versus-m curves for the fixed benchmark signal.

    With cfg.out set, Wigner grids go next to it: the true state's first,
    then both protocols' at the minimal informationally complete point and
    at m = M (reconstructed from ensemble 0 by trial-averaged data), each
    written before the next is computed.  The two points coincide when
    n + 1 = M, and are then exported once.  Without cfg.out no grid is
    computed.  Returns the new rows."""
    results = _run_grid(cfg, "homodyne")
    if cfg.out is None:
        return results
    export_m = cfg.wigner_export_m
    if export_m is None:
        export_m = dict.fromkeys(m for m in (cfg.n_params + 1, cfg.M_values[0])
                                 if m in cfg.m_values)
    axis = np.linspace(-cfg.wigner_span, cfg.wigner_span, cfg.wigner_points)
    stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
    signal = homodyne.true_signal(cfg.d)
    # overflow warnings are silenced, since _wigner_csv refuses a grid that
    # is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        _wigner_csv(f"{stem}_wigner_true.csv", axis,
                    homodyne.wigner(np.outer(signal, signal.conj()), axis, axis))
        with _one_blas_thread():
            for m in export_m:
                for kind, r_hat in _mean_estimates(cfg, m).items():
                    if r_hat is not None:
                        _wigner_csv(f"{stem}_wigner_{kind}_m{m}.csv", axis,
                                    homodyne.wigner(qstate.bloch_to_state(r_hat), axis, axis))
    return results
