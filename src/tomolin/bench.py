"""Experiment runner: configurations, the probe-count sweep, the
outcome-count sweep and the homodyne experiment, with deterministic
seeding, worker pools and CSV emission.

Determinism contract: every task derives its generator from
(master seed, stream tag, sweep coordinates, ensemble index), so output
bytes do not depend on the worker count or scheduling order.
"""

import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import homodyne, matlib, protocols, qstate

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepResult",
    "CSV_HEADER",
    "run_sweep_probes",
    "run_sweep_outcomes",
    "run_homodyne",
]

CSV_HEADER = "d,n,m,M,seed,ensemble,e2_std,e2_pat,ratio"
WORKERS_ENV = "TOMOLIN_WORKERS"

# stream tags keep rng draws of different experiments disjoint
_TAG_PROBE_SWEEP = 1
_TAG_OUTCOME_PROBES = 2
_TAG_OUTCOME_CELL = 3
_TAG_HOMODYNE = 4
_TAG_SELFTEST = 5  # drawn by tomolin.selftest

_MAX_REDRAWS = 100


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc


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
    workers: int = field(default_factory=_default_workers)
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

    @property
    def pattern_noise(self) -> protocols.NoiseSpec:
        return protocols.NoiseSpec("ratio", self.noise_ratio_patterns)

    @property
    def data_noise(self) -> protocols.NoiseSpec:
        return protocols.NoiseSpec("ratio", self.noise_ratio_data)

    def __post_init__(self):
        # a JSON list is stored as a tuple, so every config compares and
        # hashes the same however it was built
        for name, (base, _) in _FIELD_TYPES.items():
            if base is tuple and isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self) -> None:
        """Check every field against its annotated type and its bound, then
        the rules that tie fields together; raise ConfigError otherwise."""
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
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_config_document(path))


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
    "selftest_count": (lambda v: v >= 1, ">= 1"),
}


# (m, M) grid of each experiment where it differs from the ExperimentConfig
# defaults, which are the sweep-probes grid; in config-document form
DEFAULT_GRIDS = {
    "sweep-outcomes": dict(m_values=list(range(16, 61, 4)), M_values=[30]),
    "homodyne": dict(m_values=list(range(12, 49)), M_values=[40]),
}


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
    trials: int

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


def _draw_srm_detector(d: int, m: int, basis, rng):
    for _ in range(_MAX_REDRAWS):
        try:
            kets = qstate.haar_random_pure(d, rng, size=m)
            povm = qstate.square_root_measurement(kets)
            return qstate.povm_to_affine(povm, basis)
        except qstate.RankDeficientGramError:
            continue
    raise RuntimeError(f"square-root measurement redraw budget exhausted (d={d}, m={m})")


def _evaluate(cfg: ExperimentConfig, m: int, M: int, ensemble: int,
              probes, patterns, data, true_blochs):
    """One sweep point: build A_s and A_p once and return the CSV row of
    their MSEs together with both inversion matrices."""
    invs = (protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol),
            protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol))
    e2s, e2p = (protocols.batch_mse(inv, data, true_blochs) for inv in invs)
    row = SweepResult(cfg.d, cfg.n_params, m, M, cfg.seed, ensemble, e2s, e2p, cfg.trials)
    return row, invs


def _probe_sweep_task(cfg: ExperimentConfig, m: int, ensemble: int):
    """All M points of one measurement ensemble at fixed m.

    The measurement, trial states and data noise are drawn once per
    ensemble and shared along the curve; probes are drawn once at max(M)
    and prefix-sliced, so growing M literally adds probes.  This keeps the
    per-ensemble curves comparable point to point.
    """
    rng = _rng(cfg.seed, _TAG_PROBE_SWEEP, m, ensemble)
    basis = qstate.gellmann_basis(cfg.d)
    detector = _draw_srm_detector(cfg.d, m, basis, rng)
    probes_full = protocols.ProbeSet.from_blochs(
        qstate.random_blochs(basis, max(cfg.M_values), rng, cfg.state_ensemble))
    patterns_full = protocols.collect_patterns(detector, probes_full, cfg.pattern_noise, rng)
    true_blochs = qstate.random_blochs(basis, cfg.trials, rng)
    data = protocols.trial_data(detector, true_blochs, cfg.data_noise, rng)
    rows = [_evaluate(cfg, m, M, ensemble, probes_full.prefix(M), patterns_full.prefix(M),
                      data, true_blochs)[0]
            for M in cfg.M_values]
    return rows, None


def _outcome_sweep_task(cfg: ExperimentConfig, m: int, ensemble: int, probe_sets=None):
    """One (m, ensemble) cell at fixed M.

    The probe set of an ensemble comes from a stream that ignores m, so it
    is the same at every m.  probe_sets, a dict of one run, keeps each
    ensemble's set, and with it R+, from one m to the next.
    """
    basis = qstate.gellmann_basis(cfg.d)
    M = cfg.M_values[0]
    probe_sets = {} if probe_sets is None else probe_sets
    if ensemble not in probe_sets:
        rng_probes = _rng(cfg.seed, _TAG_OUTCOME_PROBES, ensemble)
        probe_sets[ensemble] = protocols.ProbeSet.from_blochs(
            qstate.random_blochs(basis, M, rng_probes, cfg.state_ensemble))
    probes = probe_sets[ensemble]
    rng = _rng(cfg.seed, _TAG_OUTCOME_CELL, m, ensemble)
    detector = _draw_srm_detector(cfg.d, m, basis, rng)
    patterns = protocols.collect_patterns(detector, probes, cfg.pattern_noise, rng)
    true_blochs = qstate.random_blochs(basis, cfg.trials, rng)
    data = protocols.trial_data(detector, true_blochs, cfg.data_noise, rng)
    row, _ = _evaluate(cfg, m, M, ensemble, probes, patterns, data, true_blochs)
    return [row], None


def _homodyne_probes(cfg: ExperimentConfig, basis, rng) -> protocols.ProbeSet:
    # coherent probes uniform in area over the disk |alpha| < 0.8
    M = cfg.M_values[0]
    radii = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, M))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, M))
    kets = homodyne.coherent_state_fock(radii * phases, cfg.d)
    rhos = np.einsum("mi,mj->mij", kets, kets.conj())
    return protocols.ProbeSet.from_blochs(qstate.state_to_bloch(rhos, basis).T)


def _homodyne_task(cfg: ExperimentConfig, m: int, ensemble: int):
    """One homodyne cell: random quadrature set, coherent probe patterns and
    repeated noisy data of the fixed benchmark signal.

    Returns the sweep row plus the estimates of both protocols from the
    trial-averaged data (used for Wigner exports)."""
    basis = qstate.gellmann_basis(cfg.d)
    rng = _rng(cfg.seed, _TAG_HOMODYNE, m, ensemble)
    meas = homodyne.homodyne_measurement(m, cfg.eta, rng, cfg.d,
                                         dx=cfg.dx, x_max=cfg.x_max)
    detector = qstate.povm_to_affine(meas.effects, basis)
    probes = _homodyne_probes(cfg, basis, rng)
    patterns = protocols.collect_patterns(detector, probes, cfg.pattern_noise, rng)
    signal = homodyne.true_signal(cfg.d)
    r_true = qstate.state_to_bloch(np.outer(signal, signal.conj()), basis)
    # every trial measures the same state: compute its response once
    p_true = detector.probabilities(r_true)
    data = protocols.add_noise(np.tile(p_true[:, None], (1, cfg.trials)), cfg.data_noise, rng)
    row, invs = _evaluate(cfg, m, cfg.M_values[0], ensemble, probes, patterns,
                          data, r_true[:, None])
    mean_estimates = {}
    for kind, inv in zip(("standard", "pattern"), invs):
        try:
            mean_estimates[kind] = protocols.estimate(inv, data.mean(axis=1))
        except protocols.DegenerateNormalizationError:
            mean_estimates[kind] = None
    return [row], mean_estimates


def _metadata(cfg: ExperimentConfig) -> dict:
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in ((f.name, getattr(cfg, f.name)) for f in fields(cfg))}


# settings that may differ between a run and its resumption
_RESUME_FREE_KEYS = ("out", "workers")


class _OutputFiles:
    """The output CSV of a run, cfg.out, and its .meta.json.

    Entering reads an existing CSV once: its header, the keys (m, M,
    ensemble) of its complete rows into `done`, and the end of its last
    complete line.  A row is complete when it has all nine fields and ends
    in a newline.  These are refused with ConfigError before either file is
    touched: a CSV whose first line is not CSV_HEADER, a complete row with a
    non-integer key, and an existing .meta.json that records another config
    when rows are resumed (only out and workers may differ; without one
    there is nothing to compare).  Then the .meta.json is written, and the
    CSV is opened for append after cutting off an unterminated last line
    left by an interrupted run, or written anew with its header.  An
    OSError while either file is opened, such as a missing directory, also
    becomes ConfigError.
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
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) == 9:
                try:
                    self.done.add((int(parts[2]), int(parts[3]), int(parts[5])))
                except ValueError:
                    raise ConfigError(f"cannot resume {path}: malformed row {line!r}") from None
        if self.done:
            self._check_metadata(path + ".meta.json")
        # the .meta.json first: once the CSV is open nothing else can fail
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(_metadata(self.cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if self.done:
            os.truncate(path, end)
            self.fh = open(path, "a", encoding="utf-8", newline="")
        else:
            self.fh = open(path, "w", encoding="utf-8", newline="")
            self.fh.write(CSV_HEADER + "\n")

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


def _run_tasks(cfg: ExperimentConfig, task, keys, collect):
    """Execute task(cfg, m, ensemble) for every key, serially or on a pool,
    and hand results to collect in canonical key order."""
    if cfg.workers == 1:
        for key in keys:
            collect(key, task(cfg, *key))
        return
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = {key: pool.submit(task, cfg, *key) for key in keys}
        for key in keys:
            collect(key, futures[key].result())


def _run_grid(cfg: ExperimentConfig, task, export_m=()):
    """Run task(cfg, m, ensemble) -> (rows, extra) over the (m, ensemble)
    grid, skipping cells whose rows cfg.out already holds, and write the new
    rows in (m, M, ensemble) order.

    An output that _OutputFiles refuses raises ConfigError before anything
    is written.  Cells at ensemble 0 of an m in export_m always
    run; their extras are returned as {m: extra}.  Other cells' results
    are dropped once their m is written, which keeps memory flat along the
    sweep.
    """
    cfg.validate()
    results = []
    extras = {}
    with _OutputFiles(cfg) as output:
        done = output.done
        for m in cfg.m_values:
            keys = [
                (m, e) for e in range(cfg.ensembles)
                if any((m, M, e) not in done for M in cfg.M_values)
                or (m in export_m and e == 0)
            ]
            gathered = {}
            _run_tasks(cfg, task, keys, gathered.__setitem__)
            for M in cfg.M_values:
                point_rows = [
                    row for key in keys for row in gathered[key][0]
                    if row.M == M and (m, M, row.ensemble) not in done
                ]
                output.write_rows(point_rows)
                results.extend(point_rows)
            if m in export_m:
                extras[m] = gathered[(m, 0)][1]
    return results, extras


def run_sweep_probes(cfg: ExperimentConfig):
    """Performance-ratio sweep over the probe count M at fixed outcome
    counts; one CSV row per (m, M, ensemble)."""
    return _run_grid(cfg, _probe_sweep_task)[0]


def run_sweep_outcomes(cfg: ExperimentConfig):
    """MSE sweep over the outcome count m at a fixed probe count M.

    The probe sets are shared across m within this run only.  Tasks sent
    to a worker pool carry an empty dict, so each worker cell draws its
    set again, with the same bits."""
    return _run_grid(cfg, partial(_outcome_sweep_task, probe_sets={}))[0]


def _wigner_csv(grid: homodyne.WignerGrid, path: str) -> None:
    # the axis strings are formatted once and reused for every point
    xs = [f"{x:.12e}" for x in grid.x_axis.tolist()]
    ps = [f"{p:.12e}" for p in grid.p_axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,p,w\n")
        for x, row in zip(xs, grid.values.tolist()):
            fh.write("".join(f"{x},{p},{w:.12e}\n" for p, w in zip(ps, row)))


def run_homodyne(cfg: ExperimentConfig):
    """Homodyne MSE-versus-m curves for the fixed benchmark signal, plus
    Wigner grid exports for both protocols at the minimal informationally
    complete point and at m = M (reconstructed from ensemble 0 by
    trial-averaged data)."""
    cfg.validate()
    export_m = cfg.wigner_export_m
    if export_m is None:
        export_m = tuple(m for m in (cfg.n_params + 1, cfg.M_values[0]) if m in cfg.m_values)
    results, mean_estimates = _run_grid(cfg, _homodyne_task, export_m)
    basis = qstate.gellmann_basis(cfg.d)
    axis = np.linspace(-cfg.wigner_span, cfg.wigner_span, cfg.wigner_points)
    exports = {
        (kind, m): homodyne.wigner(qstate.bloch_to_state(r_hat, basis), axis, axis)
        for m, estimates in mean_estimates.items()
        for kind, r_hat in estimates.items()
        if r_hat is not None
    }
    if cfg.out is not None:
        signal = homodyne.true_signal(cfg.d)
        rho_true = np.outer(signal, signal.conj())
        stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        _wigner_csv(homodyne.wigner(rho_true, axis, axis), f"{stem}_wigner_true.csv")
        for (kind, m), grid in exports.items():
            _wigner_csv(grid, f"{stem}_wigner_{kind}_m{m}.csv")
    return results, exports
