"""Invariant selftest: the matlib, qstate and protocols suites, each check
reporting its worst residual against a tolerance."""

from dataclasses import dataclass

import numpy as np

from . import bench, matlib, protocols, qstate

__all__ = ["SelfTestCheck", "SelfTestReport", "penrose_with_properties", "run_selftest"]


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


def _matlib_suite(cfg: bench.ExperimentConfig, rng):
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
        h, g = matlib.gw_decompose(x, y, rtol=cfg.rtol)
        lhs = matlib.pinv(x @ y, rtol=cfg.rtol)
        y_pinv = matlib.pinv(y, rtol=cfg.rtol)
        x_pinv = matlib.pinv(x, rtol=cfg.rtol)
        rhs = y_pinv @ (h + g) @ x_pinv
        denom = max(np.linalg.norm(lhs), 1e-30)
        worst_recon = max(worst_recon, np.linalg.norm(lhs - rhs) / denom)
        worst_orth = max(worst_orth, abs(np.trace(g.conj().T @ h)) / max(1.0, np.linalg.norm(g) * np.linalg.norm(h)))
        base = np.linalg.norm(rhs)
        for _ in range(10):
            z = matlib.admissible_perturbation(x, y, rng, rtol=cfg.rtol)
            alt = np.linalg.norm(y_pinv @ (h + z) @ x_pinv)
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
        worst_pos = max(worst_pos, matlib.reverse_order_residual(q, y, rtol=cfg.rtol))
        x = rng.standard_normal((4, 6))
        worst_pos = max(worst_pos, matlib.reverse_order_residual(x, x.conj().T, rtol=cfg.rtol))
        g = rng.standard_normal((4, 6))
        h = rng.standard_normal((6, 4))
        best_neg = min(best_neg, matlib.reverse_order_residual(g, h, rtol=cfg.rtol))
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
    xsx_pinv = matlib.pinv(xs @ x, rtol=rtol)
    xs_pinv = matlib.pinv(xs, rtol=rtol)
    p1a = np.linalg.norm(xsx_pinv @ xs - xp) / denom
    p1b = np.linalg.norm(xs @ matlib.pinv(x @ xs, rtol=rtol) - xp) / denom
    p2 = np.linalg.norm(matlib.pinv(xp, rtol=rtol) - x) / max(np.linalg.norm(x), 1e-30)
    p3 = np.linalg.norm(xs_pinv - xp.conj().T) / denom
    p4 = np.linalg.norm(xsx_pinv - xp @ xs_pinv) / max(np.linalg.norm(xsx_pinv), 1e-30)
    return res, max(p1a, p1b, p2, p3, p4)


def _qstate_suite(cfg: bench.ExperimentConfig, rng):
    worst = 0.0
    for d in range(2, 9):
        gammas = qstate.gellmann_basis(d)
        gram = np.einsum("aij,bji->ab", gammas, gammas).real
        worst = max(worst, np.abs(gram - np.eye(d * d - 1)).max())
        worst = max(worst, np.abs(np.trace(gammas, axis1=1, axis2=2)).max())
    yield SelfTestCheck("qstate", "gellmann-orthonormality", 7, worst, 1e-12)

    worst_affine = worst_round = worst_norm = 0.0
    for d in (2, 3, 4, 6):
        for _ in range(max(5, cfg.selftest_count // 20)):
            kets = qstate.haar_random_pure(d, rng, size=2 * d)
            povm = qstate.square_root_measurement(kets)
            det = qstate.povm_to_affine(povm)
            rho = qstate.random_density_hs(d, rng)
            r = qstate.state_to_bloch(rho)
            p_affine = qstate.affine_response(det, r)
            p_born = qstate.born_probabilities(rho, povm)
            worst_affine = max(worst_affine, np.abs(p_affine - p_born).max())
            worst_norm = max(worst_norm, abs(p_born.sum() - 1.0))
            rho_back = qstate.bloch_to_state(r)
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
            worst_comp = max(worst_comp, np.abs(povm.sum(axis=0) - np.eye(d)).max())
            cases += 1
    yield SelfTestCheck("qstate", "srm-completeness", cases, worst_comp, 1e-9)


def _selftest_setup(cfg: bench.ExperimentConfig, d: int, m: int, M: int, rng, noise: float = 0.03):
    """A random square-root measurement with max(m, d) outcomes, M probes
    and their noisy patterns in dimension d, drawn in that order from rng."""
    detector = bench._draw_srm_detector(d, max(m, d), rng)
    probes = protocols.ProbeSet.from_blochs(qstate.random_blochs(d, M, rng, cfg.state_ensemble))
    patterns = protocols.collect_patterns(detector, probes, noise, rng)
    return detector, probes, patterns


def _protocols_suite(cfg: bench.ExperimentConfig, rng):
    d = 3
    n_aug = d * d
    count = max(10, cfg.selftest_count // 4)

    worst_equiv = 0.0
    for _ in range(count):
        M = int(rng.integers(3, n_aug + 1))
        m = int(rng.integers(M, M + 6))
        detector, probes, patterns = _selftest_setup(cfg, d, m, M, rng)
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        a_p = protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        worst_equiv = max(worst_equiv, matlib.hs_norm(a_s - a_p) / matlib.hs_norm(a_p))
    yield SelfTestCheck("protocols", "equivalence-full-rank", count, worst_equiv, 1e-8)

    worst_norm = 0.0
    for _ in range(count):
        M = int(rng.integers(n_aug + 1, n_aug + 8))
        m = int(rng.integers(M, M + 8))
        detector, probes, patterns = _selftest_setup(cfg, d, m, M, rng)
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        a_p = protocols.pattern_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        worst_norm = max(worst_norm, matlib.hs_norm(a_s) - matlib.hs_norm(a_p))
    yield SelfTestCheck("protocols", "norm-inequality", count, worst_norm, 1e-10)

    # noise model: empirical mean of ||A dp||^2 against eps^2 ||A||^2 / m
    a = rng.standard_normal((6, 9))
    inv = np.vstack([np.ones(9), a])
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
        detector, probes, patterns = _selftest_setup(cfg, d, m, M, rng)
        f = patterns.f_matrix
        r = probes.r_matrix
        a_s = protocols.standard_inversion_matrix(patterns, probes, rtol=cfg.rtol)
        h, g = matlib.gw_decompose(f, matlib.pinv(r, rtol=cfg.rtol), rtol=cfg.rtol)
        bridged = r @ (h + g) @ matlib.pinv(f, rtol=cfg.rtol)
        worst_gw = max(worst_gw, matlib.hs_norm(a_s - bridged) / matlib.hs_norm(a_s))
    yield SelfTestCheck("protocols", "gw-bridge", max(5, count // 2), worst_gw, 1e-9)

    worst_unbiased = 0.0
    for _ in range(10):
        M = n_aug + 3
        detector, probes, patterns = _selftest_setup(cfg, d, n_aug + 2, M, rng,
                                                     noise=0.0)
        rho = qstate.random_density_hs(d, rng)
        r = qstate.state_to_bloch(rho)
        data = qstate.affine_response(detector, r)
        for build in (protocols.standard_inversion_matrix, protocols.pattern_inversion_matrix):
            inv = build(patterns, probes, rtol=cfg.rtol)
            r_hat, valid = protocols.estimate_batch(inv, data[:, None])
            worst_unbiased = max(worst_unbiased, np.abs(r_hat[:, 0] - r).max() if valid[0] else np.inf)
    yield SelfTestCheck("protocols", "zero-noise-unbiasedness", 10, worst_unbiased, 1e-8)


def run_selftest(cfg: bench.ExperimentConfig) -> SelfTestReport:
    """Run the matlib, qstate and protocols invariant suites and report
    worst residuals against their tolerances, with BLAS on one thread as
    in every run.  A config made for another experiment raises
    ConfigError."""
    if cfg.experiment != "selftest":
        raise bench.ConfigError(f"a config for experiment {cfg.experiment!r} cannot run selftest")
    rng = bench._rng(cfg.seed, bench._TAG_SELFTEST)
    checks = []
    with bench._one_blas_thread():
        checks.extend(_matlib_suite(cfg, rng))
        checks.extend(_qstate_suite(cfg, rng))
        checks.extend(_protocols_suite(cfg, rng))
    return SelfTestReport(checks=tuple(checks))
