"""Experiment runner: configurations, the probe-count sweep, the
outcome-count sweep and the homodyne experiment, with deterministic
seeding, one worker pool per run and CSV emission.

Determinism contract: every cell derives its generator from
(master seed, stream tag, sweep coordinates, ensemble index), so output
bytes do not depend on the worker count or scheduling order.
"""

import contextlib
import ctypes
import errno
import functools
import itertools
import json
import os
import pathlib
import signal
import sys
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import homodyne, matlib, protocols, qstate

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Cell",
    "CSV_HEADER",
    "cells",
    "srm_setup",
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an int counts only where it converts to a finite float
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _integer_from(low: int) -> tuple:
    return (lambda v: _is_int(v) and v >= low), f"an integer >= {low}"


_GRID_RULE = (lambda v: isinstance(v, tuple) and bool(v) and all(map(_is_int, v))
              and len(set(v)) == len(v) and min(v) >= 1,
              "a nonempty list of positive integers, with no entry repeated")
_RATIO_RULE = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")


def _field(default, rule: tuple):
    """A config field with its default and its rule, (test, what a value
    must be); a JSON list is a tuple by the test, and bools are not
    numbers here."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment run; JSON documents map onto the fields
    one-to-one and CLI flags override individual entries."""

    experiment: str = _field("sweep-probes", (
        lambda v: v in ("sweep-probes", "sweep-outcomes", "homodyne", "selftest"),
        "sweep-probes, sweep-outcomes, homodyne or selftest"))
    d: int = _field(4, _integer_from(2))  # Hilbert dimension, or Fock truncation for homodyne
    m_values: tuple = _field((18, 20, 24), _GRID_RULE)
    M_values: tuple = _field((18, 20, 22, 24, 30, 60), _GRID_RULE)
    noise_ratio_patterns: float = _field(0.03, _RATIO_RULE)
    noise_ratio_data: float = _field(0.06, _RATIO_RULE)
    ensembles: int = _field(50, _integer_from(1))
    trials: int = _field(500, _integer_from(1))
    seed: int = _field(42, _integer_from(0))
    out: str | None = _field(None, (lambda v: v is None or isinstance(v, str) and v != "",
                                    "null or a nonempty string"))
    workers: int = _field(1, _integer_from(1))
    eta: float = _field(0.8, (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"))
    wigner_points: int = _field(201, _integer_from(2))
    selftest_count: int = _field(100, _integer_from(1))

    @property
    def n_params(self) -> int:
        return self.d * self.d - 1

    def __post_init__(self):
        """Store a JSON list as a tuple, so every config compares and hashes
        the same however it was built, then check each field's rule, in
        field order, and the rules that tie fields together: a config that
        exists is valid."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                object.__setattr__(self, f.name, value := tuple(value))
            test, text = f.metadata["rule"]
            if not test(value):
                raise ConfigError(f"{f.name} must be {text}, got {value!r}")
        if self.experiment in ("sweep-probes", "sweep-outcomes") and min(self.m_values) < self.d:
            raise ConfigError(f"square-root measurements need m >= d = {self.d}")
        if self.experiment == "homodyne" and self.d < 3:
            raise ConfigError("homodyne needs d >= 3 for its three-component signal")
        if self.experiment in ("sweep-outcomes", "homodyne") and len(self.M_values) != 1:
            raise ConfigError(f"{self.experiment} expects exactly one M value")
        # the Wigner files are named from out's stem, which no other out may share
        if (self.experiment == "homodyne" and self.out is not None
                and not self.out.endswith(".csv")):
            raise ConfigError(f"homodyne out must end in .csv, got {self.out!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if unknown := sorted(set(doc) - {f.name for f in fields(cls)}):
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**doc)


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


def _rng(seed: int, *key: int):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def srm_setup(d: int, m: int, M: int, noise: float, rng, probes=None) -> tuple:
    """(D, probes, patterns) of a random square-root measurement with m
    outcomes in dimension d, drawn from rng in that order: the (m, n + 1)
    detector matrix D, redrawn while its Gram matrix is rank deficient;
    unless given, M Hilbert-Schmidt probes; their patterns at the noise
    ratio."""
    for _ in range(_MAX_REDRAWS):
        try:
            kets = qstate.haar_random_pure(d, rng, size=m)
            detector = qstate.povm_to_affine(qstate.square_root_measurement(kets))
            break
        except qstate.RankDeficientGramError:
            continue
    else:
        raise RuntimeError(f"square-root measurement redraw budget exhausted (d={d}, m={m})")
    if probes is None:
        probes = protocols.ProbeSet.from_blochs(qstate.random_blochs(d, M, rng))
    return detector, probes, protocols.collect_patterns(detector, probes, noise, rng)


def _inversion_matrices(probes, patterns) -> tuple:
    """(A_s, A_p) of a sweep point."""
    return (protocols.standard_inversion_matrix(patterns, probes),
            protocols.pattern_inversion_matrix(patterns, probes))


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
    detector, probes, patterns = srm_setup(cfg.d, m, max(cfg.M_values),
                                           cfg.noise_ratio_patterns, rng, probes)
    truth = qstate.random_blochs(cfg.d, cfg.trials, rng)
    data = protocols.trial_data(detector, truth, cfg.noise_ratio_data, rng)
    return [Cell(M, _inversion_matrices(probes.prefix(M),
                                        protocols.PatternSet(patterns.f_matrix[:, :M])),
                 data, truth, detector) for M in cfg.M_values]


@functools.lru_cache(maxsize=None)
def _outcome_probes(seed: int, d: int, M: int, ensemble: int) -> protocols.ProbeSet:
    """The probe set of an outcome-sweep ensemble, drawn from a stream that
    ignores m.  Memoised, so each process draws it, and computes its R+,
    at most once; run_sweep_outcomes clears the memo when it starts."""
    rng = _rng(seed, _TAG_OUTCOME_PROBES, ensemble)
    return protocols.ProbeSet.from_blochs(qstate.random_blochs(d, M, rng))


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
    effects = homodyne.homodyne_measurement(m, cfg.eta, rng, cfg.d)
    detector = qstate.povm_to_affine(effects)
    del effects
    probes = _homodyne_probes(cfg, rng)
    patterns = protocols.collect_patterns(detector, probes, cfg.noise_ratio_patterns, rng)
    invs = _inversion_matrices(probes, patterns)
    del probes, patterns
    r_true = qstate.state_to_bloch(homodyne.true_state(cfg.d))
    # every trial measures the same state: compute its response once
    repeated = np.broadcast_to(qstate.affine_response(detector, r_true)[:, None],
                               (m, cfg.trials))
    data = protocols.add_noise(repeated, cfg.noise_ratio_data, rng)
    return [Cell(cfg.M_values[0], invs, data, r_true[:, None], detector)]


def _c_function(library: str | None, name: str, argtypes: tuple, restype):
    """C function name of library (a path, or None for the running process)
    with argtypes and restype, or None where either cannot be loaded."""
    try:
        function = ctypes.CDLL(library)[name]
    except (OSError, AttributeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


@functools.lru_cache(maxsize=None)
def _bundled_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when numpy carries none."""
    for path in (pathlib.Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        get_threads = _c_function(str(path), "scipy_openblas_get_num_threads64_", (), ctypes.c_int)
        set_threads = _c_function(str(path), "scipy_openblas_set_num_threads64_",
                                  (ctypes.c_int,), None)
        if get_threads and set_threads:
            return get_threads, set_threads
    return None


@contextlib.contextmanager
def _numerics():
    """The numerics of every unit of work, a function that computes numbers
    a run writes (cells, _task, _export_wigner and selftest.run_selftest),
    entered by the unit itself.

    numpy's bundled OpenBLAS runs on one thread inside, and the previous
    count is restored on exit: the count can move the last bit of a result,
    so output bytes are fixed only at a fixed count.  Another BLAS needs its
    own thread variable set to 1.  Overflow and invalid warnings are
    silenced, since a value that is not finite is refused explicitly: a
    pattern, MSE or Wigner grid raises its own error, and a selftest
    residual fails its check."""
    get_threads, set_threads = _bundled_openblas() or (lambda: None, lambda count: None)
    previous = get_threads()
    set_threads(1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        set_threads(previous)


@_numerics()
def cells(cfg: ExperimentConfig, m: int, ensemble: int) -> list:
    """The cells of one ensemble of cfg's experiment at m, one per M, drawn
    exactly as a run draws them from (seed, stream tag, m, ensemble), under
    a run's _numerics, so with a run's bits."""
    if cfg.experiment == "sweep-probes":
        return _sweep_cells(cfg, m, _rng(cfg.seed, _TAG_PROBE_SWEEP, m, ensemble))
    if cfg.experiment == "sweep-outcomes":
        probes = _outcome_probes(cfg.seed, cfg.d, cfg.M_values[0], ensemble)
        return _sweep_cells(cfg, m, _rng(cfg.seed, _TAG_OUTCOME_CELL, m, ensemble), probes)
    if cfg.experiment == "homodyne":
        return _homodyne_cells(cfg, m, _rng(cfg.seed, _TAG_HOMODYNE, m, ensemble))
    raise ConfigError(f"experiment {cfg.experiment!r} has no cells")


@_numerics()
def _task(cfg: ExperimentConfig, m: int) -> list:
    """The rows (m, M, ensemble, e2_std, e2_pat) of every ensemble at m, in
    the CSV's (M, ensemble) order: the MSEs of both protocols in each cell."""
    by_ensemble = [[(m, cell.M, ensemble, *(protocols.batch_mse(inv, cell.data, cell.truth)
                                            for inv in cell.invs))
                    for cell in cells(cfg, m, ensemble)]  # freed before the next ensemble
                   for ensemble in range(cfg.ensembles)]
    return [row for at_M in zip(*by_ensemble) for row in at_M]


def _mean_estimates(cfg: ExperimentConfig, m: int) -> dict:
    """The states both protocols estimate from the trial-averaged data of
    ensemble 0 at m, recomputed from the cell's key; None where an estimate
    is degenerate.  The cell's arrays are freed on return."""
    (cell,) = cells(cfg, m, 0)
    mean = cell.data.mean(axis=1, keepdims=True)
    states = {}
    for kind, inv in zip(("standard", "pattern"), cell.invs):
        r_hat, valid = protocols.estimate_batch(inv, mean)
        states[kind] = qstate.bloch_to_state(r_hat[:, 0]) if valid[0] else None
    return states


def _metadata(cfg: ExperimentConfig) -> dict:
    # every field but out and workers: each moves some experiment's output,
    # though eta, wigner_points and selftest_count move no sweep byte
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in ((f.name, getattr(cfg, f.name)) for f in fields(cfg))
            if name not in ("out", "workers")}


def _open_locked(tmp: str, path: str):
    """tmp, created if missing, as an empty text file that this process
    holds a POSIX lock (os.lockf) on, or ConfigError where another process
    holds it.  The file is truncated only once it is locked and still named
    tmp: a run that renamed tmp into place after the open leaves a new tmp,
    which is opened in turn.  The lock is a process's own, so forked pool
    workers do not hold it, and it goes when the file is closed or the
    process dies."""
    while True:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            # os.lockf is missing on Windows, where two runs into one out
            # are not refused
            if hasattr(os, "lockf"):
                try:
                    os.lockf(fd, os.F_TLOCK, 0)
                except (BlockingIOError, PermissionError):
                    raise ConfigError(f"another run is writing {path}") from None
            with contextlib.suppress(FileNotFoundError):
                if os.path.samestat(os.fstat(fd), os.stat(tmp)):
                    os.ftruncate(fd, 0)
                    return open(fd, "w", encoding="utf-8", newline="")
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a text file that replaces path once the block completes.  It is
    written to path + ".tmp", locked against other runs (_open_locked), so
    path never holds a partial file or two runs' lines, and removed if the
    block raises.  A run enters one for each of its files on one ExitStack,
    so they replace theirs only once the whole run has completed, and a
    rerun after a kill overwrites the .tmp files left.  A path that is a
    directory, which the rename would fail on, raises at once."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.tmp"
    # outside the try: a .tmp that another run holds is not removed
    with _open_locked(tmp, path) as fh:
        try:
            yield fh
            fh.flush()
            # renamed before the close, which ends the lock
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def _open_csv(cfg: ExperimentConfig, files: contextlib.ExitStack):
    """The CSV of cfg.out, or None without one, with its header, opened
    through _replacing on files, then its .meta.json, written the same way;
    the CSV is entered first, so it is the last file the run renames, and
    its header is flushed at once.  An existing cfg.out is replaced only
    when it is a run's CSV, one that begins with CSV_HEADER and a newline or
    is a cut of that line; anything else, and an OSError while either file
    is opened, is ConfigError before any cell is computed."""
    if cfg.out is None:
        return None
    head = b""
    try:
        with contextlib.suppress(FileNotFoundError), open(cfg.out, "rb") as fh:
            head = fh.read(len(CSV_HEADER) + 1)
        if not f"{CSV_HEADER}\n".encode().startswith(head):
            raise ConfigError(f"cannot replace {cfg.out}: it does not begin with {CSV_HEADER}")
        csv = files.enter_context(_replacing(cfg.out))
        meta = files.enter_context(_replacing(cfg.out + ".meta.json"))
    except OSError as exc:
        raise ConfigError(f"cannot use output {cfg.out}: {exc}") from exc
    json.dump(_metadata(cfg), meta, indent=2, sort_keys=True)
    meta.write("\n")
    csv.write(CSV_HEADER + "\n")
    csv.flush()
    return csv


def _write_rows(csv, cfg: ExperimentConfig, rows) -> None:
    """Write rows (m, M, ensemble, e2_std, e2_pat) to csv as CSV lines, with
    the ratio e2_std / e2_pat, inf where e2_pat is 0, and flush them, so that
    the run's .tmp file shows how far it has come."""
    for m, M, ensemble, e2_std, e2_pat in rows:
        ratio = e2_std / e2_pat if e2_pat > 0 else np.inf
        csv.write(f"{cfg.d},{cfg.n_params},{m},{M},{cfg.seed},{ensemble},"
                  f"{e2_std:.12e},{e2_pat:.12e},{ratio:.12e}\n")
    csv.flush()


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _init_worker(parent) -> None:
    """Start a pool worker: on Linux, arm a SIGTERM for when the parent
    dies, so that a killed run leaves no worker behind.  Linux
    sends it when the thread that forked the worker ends; pool.map submits,
    and so starts the workers, from the main thread.  A worker whose parent
    died before the signal was armed sees another parent pid and exits.
    parent is the pid of the forking process, or None when the workers are
    not forked from it."""
    if not sys.platform.startswith("linux"):
        return
    prctl = _c_function(None, "prctl", (ctypes.c_int, ctypes.c_ulong), ctypes.c_int)
    if prctl is None:
        return
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if parent is not None and os.getppid() != parent:
        os._exit(1)


def _cell_results(cfg: ExperimentConfig):
    """Yield _task(cfg, m) for each m of cfg, in order: in this process at
    one worker, otherwise from one pool that serves the whole run, so later
    m values are already computed while earlier ones are written."""
    if cfg.workers == 1:
        yield from map(functools.partial(_task, cfg), cfg.m_values)
        return
    # imported here, so that a run on one worker loads no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    parent = os.getpid() if multiprocessing.get_start_method() == "fork" else None
    # at most one worker per m and per CPU this process may use: a forked
    # pool starts all of its workers at the first submit
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.workers, len(cfg.m_values), cpus or 1)
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(parent,)) as pool:
        yield from pool.map(functools.partial(_task, cfg), cfg.m_values)


def _require_experiment(cfg: ExperimentConfig, experiment: str) -> None:
    """Raise ConfigError for a config made for another experiment."""
    if cfg.experiment != experiment:
        raise ConfigError(f"a config for experiment {cfg.experiment!r} cannot run {experiment}")


def _run_grid(cfg: ExperimentConfig, csv) -> list:
    """Every row of cfg's run, _task(cfg, m) for each m, in (m, M, ensemble)
    order; each m's rows are also written to csv, unless it is None."""
    results = []
    for rows in _cell_results(cfg):
        if csv is not None:
            _write_rows(csv, cfg, rows)
        results.extend(rows)
    return results


def run_sweep_probes(cfg: ExperimentConfig):
    """Performance-ratio sweep over the probe count M at fixed outcome
    counts; one CSV row per (m, M, ensemble)."""
    _require_experiment(cfg, "sweep-probes")
    with contextlib.ExitStack() as files:
        return _run_grid(cfg, _open_csv(cfg, files))


def run_sweep_outcomes(cfg: ExperimentConfig):
    """MSE sweep over the outcome count m at a fixed probe count M.

    Each ensemble's probe set is shared across m: every process, this one
    or a pool worker, draws it at most once in a run."""
    _require_experiment(cfg, "sweep-outcomes")
    _outcome_probes.cache_clear()
    with contextlib.ExitStack() as files:
        return _run_grid(cfg, _open_csv(cfg, files))


# the half-width of the Wigner axis of an export, wide enough that a grid
# of the benchmark signal integrates to 1
_WIGNER_SPAN = 5.0


def _wigner_grid(rho: np.ndarray, axis: np.ndarray, path: str) -> np.ndarray:
    """The Wigner grid of rho over axis x axis, bound for path; one that is
    not finite raises FloatingPointError."""
    values = homodyne.wigner(rho, axis)
    if not np.isfinite(values).all():
        raise FloatingPointError(f"the Wigner grid of {path} is not finite")
    return values


def _wigner_csv(fh, axis: np.ndarray, values: np.ndarray) -> None:
    # values are a Wigner grid over axis x axis; the axis strings are
    # formatted once, and each row goes out through one % template of them
    points = [f"{v:.12e}" for v in axis.tolist()]
    fh.write("x,p,w\n")
    for x, row in zip(points, values):
        fh.write("".join(f"{x},{p},%.12e\n" for p in points) % tuple(row.tolist()))


@_numerics()
def _export_wigner(cfg: ExperimentConfig, files: contextlib.ExitStack) -> None:
    """Write the Wigner grids of a homodyne run next to cfg.out through
    _replacing on files: the true state's, then both protocols' at the
    minimal informationally complete point and at m = M, where they lie in
    cfg.m_values (from the trial-averaged data of ensemble 0), once where
    they coincide, n + 1 = M.  Each grid is written and freed before the
    next state is estimated."""
    axis = np.linspace(-_WIGNER_SPAN, _WIGNER_SPAN, cfg.wigner_points)
    stem = cfg.out[:-4]
    export_m = dict.fromkeys(m for m in (cfg.n_params + 1, cfg.M_values[0]) if m in cfg.m_values)
    states = itertools.chain([("true", homodyne.true_state(cfg.d))], (
        (f"{kind}_m{m}", rho) for m in export_m
        for kind, rho in _mean_estimates(cfg, m).items() if rho is not None))
    for name, rho in states:
        path = f"{stem}_wigner_{name}.csv"
        _wigner_csv(files.enter_context(_replacing(path)), axis, _wigner_grid(rho, axis, path))


def run_homodyne(cfg: ExperimentConfig):
    """Homodyne MSE-versus-m curves for the fixed benchmark signal.

    With cfg.out set, the run opens its CSV and writes every Wigner grid
    (_export_wigner) before the first cell; without it no grid is computed.
    Every file replaces its final name only once the run has completed.
    Returns the rows."""
    _require_experiment(cfg, "homodyne")
    with contextlib.ExitStack() as files:
        csv = _open_csv(cfg, files)
        if csv is not None:
            _export_wigner(cfg, files)
        return _run_grid(cfg, csv)
