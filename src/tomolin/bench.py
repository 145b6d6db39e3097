"""Experiment runner: the probe-count sweep, the outcome-count sweep, the
homodyne experiment and the selftest, with deterministic seeding, worker
pools and CSV emission.

Determinism contract: every task derives its generator from
(master seed, stream tag, sweep coordinates, ensemble index), so output
bytes do not depend on the worker count or scheduling order.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

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
    "run_selftest",
    "SelfTestReport",
]

CSV_HEADER = "d,n,m,M,seed,ensemble,e2_std,e2_pat,ratio"
WORKERS_ENV = "TOMOLIN_WORKERS"

# stream tags keep rng draws of different experiments disjoint
_TAG_PROBE_SWEEP = 1
_TAG_OUTCOME_PROBES = 2
_TAG_OUTCOME_CELL = 3
_TAG_HOMODYNE = 4
_TAG_SELFTEST = 5

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

    def validate(self) -> None:
        if self.experiment not in ("sweep-probes", "sweep-outcomes", "homodyne", "selftest"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.d < 2:
            raise ConfigError("d must be >= 2")
        if not self.m_values or not self.M_values:
            raise ConfigError("m_values and M_values must be nonempty")
        if any(m < 1 for m in self.m_values) or any(M < 1 for M in self.M_values):
            raise ConfigError("sweep ranges must be positive")
        if any(len(set(v)) != len(v) for v in (self.m_values, self.M_values)):
            raise ConfigError("m_values and M_values must not repeat an entry")
        if self.experiment in ("sweep-probes", "sweep-outcomes") and min(self.m_values) < self.d:
            raise ConfigError(f"square-root measurements need m >= d = {self.d}")
        if self.experiment == "homodyne" and self.d < 3:
            raise ConfigError("homodyne needs d >= 3 for its three-component signal")
        if self.noise_ratio_patterns < 0 or self.noise_ratio_data < 0:
            raise ConfigError("noise ratios must be >= 0")
        if self.ensembles < 1 or self.trials < 1:
            raise ConfigError("ensembles and trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.state_ensemble not in ("hs", "pure"):
            raise ConfigError(f"unknown state ensemble {self.state_ensemble!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta must lie in [0, 1]")
        if self.dx <= 0 or self.x_max <= 0:
            raise ConfigError("dx and x_max must be > 0")
        if self.experiment == "sweep-outcomes" and len(self.M_values) != 1:
            raise ConfigError("sweep-outcomes expects exactly one M value")
        if self.experiment == "homodyne" and len(self.M_values) != 1:
            raise ConfigError("homodyne expects exactly one M value")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("m_values", "M_values", "wigner_export_m"):
            if key in doc and doc[key] is not None:
                if not isinstance(doc[key], list):
                    raise ConfigError(f"{key} must be a list of integers, got {doc[key]!r}")
                try:
                    doc[key] = tuple(int(v) for v in doc[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key} must be a list of integers: {exc}") from exc
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        return cls.from_dict(doc)


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


def _outcome_sweep_task(cfg: ExperimentConfig, m: int, ensemble: int):
    """One (m, ensemble) cell at fixed M; the probe set is shared across m."""
    basis = qstate.gellmann_basis(cfg.d)
    M = cfg.M_values[0]
    rng_probes = _rng(cfg.seed, _TAG_OUTCOME_PROBES, ensemble)
    probes = protocols.ProbeSet.from_blochs(
        qstate.random_blochs(basis, M, rng_probes, cfg.state_ensemble))
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
    detector = homodyne.homodyne_detector_model(meas, basis)
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


def _read_done_rows(path: str) -> set:
    """Keys (m, M, ensemble) of the rows already in an output CSV.

    A row counts only when it has all nine fields and ends in a newline.
    A file whose first complete line is not CSV_HEADER is refused.
    """
    done = set()
    if path is None or not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob[:blob.rfind(b"\n") + 1].decode("utf-8").splitlines()
    if lines and lines[0] != CSV_HEADER:
        raise ConfigError(f"cannot resume {path}: its first line is not the header {CSV_HEADER}")
    for line in lines:
        parts = line.split(",")
        if len(parts) == 9 and not line.startswith("d,"):
            done.add((int(parts[2]), int(parts[3]), int(parts[5])))
    return done


class _CsvWriter:
    """Writes rows to path; on resume it appends, after cutting off an
    unterminated last line left by an interrupted run so that new rows
    start on a line of their own."""

    def __init__(self, path: str | None, resume: bool):
        self.path = path
        self.fh = None
        if path is None:
            return
        if resume and os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(fh.read().rfind(b"\n") + 1)
            self.fh = open(path, "a", encoding="utf-8", newline="")
        else:
            self.fh = open(path, "w", encoding="utf-8", newline="")
            self.fh.write(CSV_HEADER + "\n")

    def write_rows(self, rows) -> None:
        if self.fh is not None:
            for row in rows:
                self.fh.write(row.csv_row() + "\n")
            self.fh.flush()

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _metadata(cfg: ExperimentConfig) -> dict:
    doc = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for key in ("m_values", "M_values", "wigner_export_m"):
        if doc[key] is not None:
            doc[key] = list(doc[key])
    return doc


# settings that may differ between a run and its resumption
_RESUME_FREE_KEYS = ("out", "workers")


def _check_resume(cfg: ExperimentConfig) -> None:
    """Refuse to append to cfg.out when its .meta.json records another
    config; the output path and the worker count may differ.  Without a
    .meta.json there is nothing to compare, and the resume goes ahead."""
    path = cfg.out + ".meta.json"
    if not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot resume {cfg.out}: unreadable {path}: {exc}") from exc
    if not isinstance(old, dict):
        raise ConfigError(f"cannot resume {cfg.out}: {path} is not a JSON object")
    new = _metadata(cfg)
    changed = sorted(key for key in set(old) | set(new)
                     if key not in _RESUME_FREE_KEYS and old.get(key) != new.get(key))
    if changed:
        diffs = ", ".join(f"{key} {old.get(key)!r} -> {new.get(key)!r}" for key in changed)
        raise ConfigError(f"cannot resume {cfg.out}, written with a different config ({diffs}); "
                          f"use another --out or remove the file")


def _write_metadata(cfg: ExperimentConfig) -> None:
    if cfg.out is None:
        return
    doc = _metadata(cfg)
    with open(cfg.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

    Resuming a file written with another config raises ConfigError before
    anything is written.  Cells at ensemble 0 of an m in export_m always
    run; their extras are returned as {m: extra}.  Other cells' results
    are dropped once their m is written, which keeps memory flat along the
    sweep.
    """
    cfg.validate()
    done = _read_done_rows(cfg.out)
    if done:
        _check_resume(cfg)
    writer = _CsvWriter(cfg.out, resume=bool(done))
    _write_metadata(cfg)
    results = []
    extras = {}
    try:
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
                writer.write_rows(point_rows)
                results.extend(point_rows)
            if m in export_m:
                extras[m] = gathered[(m, 0)][1]
    finally:
        writer.close()
    return results, extras


def run_sweep_probes(cfg: ExperimentConfig):
    """Performance-ratio sweep over the probe count M at fixed outcome
    counts; one CSV row per (m, M, ensemble)."""
    return _run_grid(cfg, _probe_sweep_task)[0]


def run_sweep_outcomes(cfg: ExperimentConfig):
    """MSE sweep over the outcome count m at a fixed probe count M."""
    return _run_grid(cfg, _outcome_sweep_task)[0]


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


# ----------------------------------------------------------------------
# selftest

@dataclass(frozen=True)
class SelfTestCheck:
    suite: str
    name: str
    count: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}: {self.count} cases, "
                f"worst {self.worst:.3e} (tol {self.tol:.1e})")


@dataclass(frozen=True)
class SelfTestReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_lines(self):
        lines = [c.line() for c in self.checks]
        suites = sorted({c.suite for c in self.checks})
        for suite in suites:
            n = sum(1 for c in self.checks if c.suite == suite)
            bad = sum(1 for c in self.checks if c.suite == suite and not c.passed)
            lines.append(f"{suite}: {n - bad}/{n} checks passed")
        lines.append("selftest: " + ("PASS" if self.passed else "FAIL"))
        return lines


def _random_shaped_matrix(rng, max_dim: int = 20):
    rows = int(rng.integers(1, max_dim))
    cols = int(rng.integers(1, max_dim))
    x = rng.standard_normal((rows, cols))
    style = rng.integers(0, 3)
    if style == 1:  # complex
        x = x + 1j * rng.standard_normal((rows, cols))
    elif style == 2 and min(rows, cols) > 1:  # rank deficient
        k = int(rng.integers(1, min(rows, cols)))
        x = x @ rng.standard_normal((cols, cols))
        x[:, k:] = x[:, :1]
    return x


def _matlib_suite(cfg: ExperimentConfig, rng):
    count = cfg.selftest_count
    worst_penrose = 0.0
    worst_props = 0.0
    for _ in range(count):
        x = _random_shaped_matrix(rng)
        xp = matlib.pinv(x, rtol=cfg.rtol)
        penrose, props = penrose_with_properties(x, xp, cfg.rtol)
        worst_penrose = max(worst_penrose, penrose)
        worst_props = max(worst_props, props)
    yield SelfTestCheck("matlib", "penrose-c1-c4", count, worst_penrose, 1e-9)
    yield SelfTestCheck("matlib", "pinv-properties", count, worst_props, 1e-9)

    worst_recon = worst_orth = worst_min = 0.0
    pairs = max(10, count // 4)
    for _ in range(pairs):
        x = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
        y = rng.standard_normal((x.shape[1], int(rng.integers(2, 10))))
        dec = matlib.gw_decompose(x, y, rtol=cfg.rtol)
        lhs = matlib.pinv(x @ y, rtol=cfg.rtol)
        rhs = matlib.pinv(y, rtol=cfg.rtol) @ (dec.h + dec.g) @ matlib.pinv(x, rtol=cfg.rtol)
        denom = max(np.linalg.norm(lhs), 1e-30)
        worst_recon = max(worst_recon, np.linalg.norm(lhs - rhs) / denom)
        worst_orth = max(worst_orth, abs(np.trace(dec.g.conj().T @ dec.h)) / max(1.0, np.linalg.norm(dec.g) * np.linalg.norm(dec.h)))
        base = np.linalg.norm(rhs)
        for _ in range(10):
            z = matlib.admissible_perturbation(x, y, rng, rtol=cfg.rtol)
            alt = np.linalg.norm(matlib.pinv(y, rtol=cfg.rtol) @ (dec.h + z) @ matlib.pinv(x, rtol=cfg.rtol))
            # slack measured relative to the minimal norm; the inequality
            # is scale covariant, an absolute slack would not be
            worst_min = max(worst_min, (base - alt) / max(base, 1e-30))
    yield SelfTestCheck("matlib", "gw-reconstruction", pairs, worst_recon, 1e-9)
    yield SelfTestCheck("matlib", "gw-orthogonality", pairs, worst_orth, 1e-9)
    yield SelfTestCheck("matlib", "gw-minimality", pairs * 10, worst_min, 1e-10)

    worst_pos = 0.0
    best_neg = np.inf
    for _ in range(10):
        q = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        y = rng.standard_normal((4, 6))
        worst_pos = max(worst_pos, matlib.reverse_order_holds(q, y, rtol=cfg.rtol)[1])
        x = rng.standard_normal((4, 6))
        worst_pos = max(worst_pos, matlib.reverse_order_holds(x, x.conj().T, rtol=cfg.rtol)[1])
        g = rng.standard_normal((4, 6))
        h = rng.standard_normal((6, 4))
        best_neg = min(best_neg, matlib.reverse_order_holds(g, h, rtol=cfg.rtol)[1])
    yield SelfTestCheck("matlib", "reverse-order-valid-cases", 20, worst_pos, 1e-9)
    # negative control: generic products must violate the law
    yield SelfTestCheck("matlib", "reverse-order-negative-control", 10,
                        1e-3 - best_neg if best_neg < 1e-3 else 0.0, 0.0)


def penrose_with_properties(x, xp, rtol=None):
    """Worst Penrose residual and worst residual of the pseudoinverse
    identities X+ = (X*X)+X* = X*(XX*)+, (X+)+ = X, (X*)+ = (X+)*,
    (X*X)+ = X+(X*)+."""
    res = matlib.penrose_check(x, xp).max()
    xs = x.conj().T
    denom = max(np.linalg.norm(xp), 1e-30)
    p1a = np.linalg.norm(matlib.pinv(xs @ x, rtol=rtol) @ xs - xp) / denom
    p1b = np.linalg.norm(xs @ matlib.pinv(x @ xs, rtol=rtol) - xp) / denom
    p2 = np.linalg.norm(matlib.pinv(xp, rtol=rtol) - x) / max(np.linalg.norm(x), 1e-30)
    p3 = np.linalg.norm(matlib.pinv(xs, rtol=rtol) - xp.conj().T) / denom
    lhs = matlib.pinv(xs @ x, rtol=rtol)
    rhs = xp @ matlib.pinv(xs, rtol=rtol)
    p4 = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30)
    return res, max(p1a, p1b, p2, p3, p4)


def _qstate_suite(cfg: ExperimentConfig, rng):
    worst = 0.0
    for d in range(2, 9):
        basis = qstate.gellmann_basis(d)
        n = basis.size
        gram = np.einsum("aij,bji->ab", basis.gammas, basis.gammas).real
        worst = max(worst, np.abs(gram - np.eye(n)).max())
        worst = max(worst, np.abs(np.trace(basis.gammas, axis1=1, axis2=2)).max())
    yield SelfTestCheck("qstate", "gellmann-orthonormality", 7, worst, 1e-12)

    worst_affine = worst_round = worst_norm = 0.0
    for d in (2, 3, 4, 6):
        basis = qstate.gellmann_basis(d)
        for _ in range(max(5, cfg.selftest_count // 20)):
            kets = qstate.haar_random_pure(d, rng, size=2 * d)
            povm = qstate.square_root_measurement(kets)
            det = qstate.povm_to_affine(povm, basis)
            rho = qstate.random_density_hs(d, rng)
            r = qstate.state_to_bloch(rho, basis)
            p_affine = det.probabilities(r)
            p_born = qstate.born_probabilities(rho, povm)
            worst_affine = max(worst_affine, np.abs(p_affine - p_born).max())
            worst_norm = max(worst_norm, abs(p_born.sum() - 1.0))
            rho_back = qstate.bloch_to_state(r, basis)
            worst_round = max(worst_round, np.abs(rho_back - rho).max())
    yield SelfTestCheck("qstate", "affine-vs-born", 4 * max(5, cfg.selftest_count // 20), worst_affine, 1e-12)
    yield SelfTestCheck("qstate", "bloch-round-trip", 4 * max(5, cfg.selftest_count // 20), worst_round, 1e-12)
    yield SelfTestCheck("qstate", "born-normalisation", 4 * max(5, cfg.selftest_count // 20), worst_norm, 1e-9)

    worst_comp = 0.0
    cases = 0
    for d in (2, 3, 4):
        for m in range(d, 3 * d + 1):
            kets = qstate.haar_random_pure(d, rng, size=m)
            povm = qstate.square_root_measurement(kets)
            worst_comp = max(worst_comp, np.abs(povm.elements.sum(axis=0) - np.eye(d)).max())
            cases += 1
    yield SelfTestCheck("qstate", "srm-completeness", cases, worst_comp, 1e-9)


def _selftest_setup(cfg: ExperimentConfig, basis, m: int, M: int, rng, noise: float = 0.03):
    """A random square-root measurement with max(m, d) outcomes, M probes
    and their noisy patterns, drawn in that order from rng."""
    detector = _draw_srm_detector(basis.dim, max(m, basis.dim), basis, rng)
    probes = protocols.ProbeSet.from_blochs(
        qstate.random_blochs(basis, M, rng, cfg.state_ensemble))
    patterns = protocols.collect_patterns(
        detector, probes, protocols.NoiseSpec("ratio", noise), rng)
    return detector, probes, patterns


def _protocols_suite(cfg: ExperimentConfig, rng):
    d = 3
    basis = qstate.gellmann_basis(d)
    n_aug = d * d
    count = max(10, cfg.selftest_count // 4)

    worst_equiv = 0.0
    for _ in range(count):
        M = int(rng.integers(3, n_aug + 1))
        m = int(rng.integers(M, M + 6))
        detector, probes, patterns = _selftest_setup(cfg, basis, m, M, rng)
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        a_p = protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        worst_equiv = max(worst_equiv, matlib.hs_norm(a_s.matrix - a_p.matrix)
                          / matlib.hs_norm(a_p.matrix))
    yield SelfTestCheck("protocols", "equivalence-full-rank", count, worst_equiv, 1e-8)

    worst_norm = 0.0
    for _ in range(count):
        M = int(rng.integers(n_aug + 1, n_aug + 8))
        m = int(rng.integers(M, M + 8))
        detector, probes, patterns = _selftest_setup(cfg, basis, m, M, rng)
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        a_p = protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        worst_norm = max(worst_norm, a_s.hs_norm_value - a_p.hs_norm_value)
    yield SelfTestCheck("protocols", "norm-inequality", count, worst_norm, 1e-10)

    # noise model: empirical mean of ||A dp||^2 against eps^2 ||A||^2 / m
    a = rng.standard_normal((6, 9))
    inv = protocols.InversionMatrix("oracle", np.vstack([np.ones(9), a]))
    eps = 0.05
    draws = rng.standard_normal((20000, 9))
    draws *= eps / np.linalg.norm(draws, axis=1, keepdims=True)
    empirical = np.mean(np.sum((draws @ a.T) ** 2, axis=1))
    predicted = protocols.mse_theoretical(inv, eps, 9)
    yield SelfTestCheck("protocols", "noise-model-consistency", 20000,
                        abs(empirical - predicted) / predicted, 0.03)

    worst_gw = 0.0
    for _ in range(max(5, count // 2)):
        M = int(rng.integers(n_aug + 1, n_aug + 6))
        m = int(rng.integers(d, n_aug))
        detector, probes, patterns = _selftest_setup(cfg, basis, m, M, rng)
        f = patterns.f_matrix
        r = probes.r_matrix
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        dec = matlib.gw_decompose(f, matlib.pinv(r, rtol=cfg.rtol), rtol=cfg.rtol)
        bridged = r @ (dec.h + dec.g) @ matlib.pinv(f, rtol=cfg.rtol)
        worst_gw = max(worst_gw, matlib.hs_norm(a_s.matrix - bridged)
                       / matlib.hs_norm(a_s.matrix))
    yield SelfTestCheck("protocols", "gw-bridge", max(5, count // 2), worst_gw, 1e-9)

    worst_unbiased = 0.0
    for _ in range(10):
        M = n_aug + 3
        detector, probes, patterns = _selftest_setup(cfg, basis, n_aug + 2, M, rng,
                                                     noise=0.0)
        rho = qstate.random_density_hs(d, rng)
        r = qstate.state_to_bloch(rho, basis)
        data = detector.probabilities(r)
        for build in (protocols.standard_inversion_matrix, protocols.pattern_inversion_matrix):
            inv = build(patterns, probes, rtol=cfg.rtol)
            worst_unbiased = max(worst_unbiased,
                                 np.abs(protocols.estimate(inv, data) - r).max())
    yield SelfTestCheck("protocols", "zero-noise-unbiasedness", 10, worst_unbiased, 1e-8)


def run_selftest(cfg: ExperimentConfig) -> SelfTestReport:
    """Run the matlib, qstate and protocols invariant suites and report
    worst residuals against their tolerances."""
    cfg.validate()
    rng = _rng(cfg.seed, _TAG_SELFTEST)
    checks = []
    checks.extend(_matlib_suite(cfg, rng))
    checks.extend(_qstate_suite(cfg, rng))
    checks.extend(_protocols_suite(cfg, rng))
    return SelfTestReport(checks=tuple(checks))
