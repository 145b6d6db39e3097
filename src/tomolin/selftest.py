"""Invariant selftest: the matlib, qstate and protocols suites.  Each check
is a tuple (suite, name, count, worst, tol): the worst residual over count
cases, which passes when it is at most tol.  Residuals are accumulated with
np.maximum, so a NaN residual makes worst NaN and fails its check."""

import numpy as np

from . import bench, matlib, protocols, qstate

__all__ = ["format_lines", "passed", "penrose_with_properties", "run_selftest"]


def passed(check) -> bool:
    """The verdict on a check: worst <= tol, so a NaN residual fails."""
    *_, worst, tol = check
    return worst <= tol


def format_lines(checks) -> list:
    """The report of the checks: one line each, then per suite the count of
    checks passed, then the verdict, selftest: PASS or FAIL."""
    lines = []
    passed_by_suite = {}
    for check in checks:
        suite, name, count, worst, tol = check
        ok = passed(check)
        passed_by_suite.setdefault(suite, []).append(ok)
        lines.append(f"[{'pass' if ok else 'FAIL'}] {suite}/{name}: {count} cases, "
                     f"worst {worst:.3e} (tol {tol:.1e})")
    for suite, oks in sorted(passed_by_suite.items()):
        lines.append(f"{suite}: {sum(oks)}/{len(oks)} checks passed")
    lines.append("selftest: " + ("PASS" if all(map(all, passed_by_suite.values())) else "FAIL"))
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
        xp = matlib.pinv(x)
        penrose, props = penrose_with_properties(x, xp)
        worst_penrose = np.maximum(worst_penrose, penrose)
        worst_props = np.maximum(worst_props, props)
    yield "matlib", "penrose-c1-c4", count, worst_penrose, 1e-9
    yield "matlib", "pinv-properties", count, worst_props, 1e-9

    worst_recon = worst_orth = worst_min = 0.0
    pairs = max(10, count // 4)
    for _ in range(pairs):
        x = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
        y = rng.standard_normal((x.shape[1], int(rng.integers(2, 10))))
        h, g = matlib.gw_decompose(x, y)
        lhs = matlib.pinv(x @ y)
        y_pinv = matlib.pinv(y)
        x_pinv = matlib.pinv(x)
        rhs = y_pinv @ (h + g) @ x_pinv
        denom = max(np.linalg.norm(lhs), 1e-30)
        worst_recon = np.maximum(worst_recon, np.linalg.norm(lhs - rhs) / denom)
        worst_orth = np.maximum(worst_orth, abs(np.trace(g.conj().T @ h))
                                / max(1.0, np.linalg.norm(g) * np.linalg.norm(h)))
        base = np.linalg.norm(rhs)
        for _ in range(10):
            z = matlib.admissible_perturbation(x, y, rng)
            alt = np.linalg.norm(y_pinv @ (h + z) @ x_pinv)
            # slack measured relative to the minimal norm; the inequality
            # is scale covariant, an absolute slack would not be
            worst_min = np.maximum(worst_min, (base - alt) / max(base, 1e-30))
    yield "matlib", "gw-reconstruction", pairs, worst_recon, 1e-9
    yield "matlib", "gw-orthogonality", pairs, worst_orth, 1e-9
    yield "matlib", "gw-minimality", pairs * 10, worst_min, 1e-10

    worst_pos = 0.0
    best_neg = np.inf
    for _ in range(10):
        q = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        y = rng.standard_normal((4, 6))
        worst_pos = np.maximum(worst_pos, matlib.reverse_order_residual(q, y))
        x = rng.standard_normal((4, 6))
        worst_pos = np.maximum(worst_pos,
                               matlib.reverse_order_residual(x, x.conj().T))
        g = rng.standard_normal((4, 6))
        h = rng.standard_normal((6, 4))
        best_neg = np.minimum(best_neg, matlib.reverse_order_residual(g, h))
    yield "matlib", "reverse-order-valid-cases", 20, worst_pos, 1e-9
    # negative control: generic products must violate the law
    yield ("matlib", "reverse-order-negative-control", 10,
           np.maximum(1e-3 - best_neg, 0.0), 0.0)


def penrose_with_properties(x, xp):
    """Worst Penrose residual and worst residual of the pseudoinverse
    identities X+ = (X*X)+X* = X*(XX*)+, (X+)+ = X, (X*)+ = (X+)*,
    (X*X)+ = X+(X*)+."""
    res = matlib.penrose_check(x, xp).max()
    xs = x.conj().T
    denom = max(np.linalg.norm(xp), 1e-30)
    xsx_pinv = matlib.pinv(xs @ x)
    xs_pinv = matlib.pinv(xs)
    p1a = np.linalg.norm(xsx_pinv @ xs - xp) / denom
    p1b = np.linalg.norm(xs @ matlib.pinv(x @ xs) - xp) / denom
    p2 = np.linalg.norm(matlib.pinv(xp) - x) / max(np.linalg.norm(x), 1e-30)
    p3 = np.linalg.norm(xs_pinv - xp.conj().T) / denom
    p4 = np.linalg.norm(xsx_pinv - xp @ xs_pinv) / max(np.linalg.norm(xsx_pinv), 1e-30)
    return res, np.max((p1a, p1b, p2, p3, p4))


def _qstate_suite(cfg: bench.ExperimentConfig, rng):
    worst = 0.0
    for d in range(2, 9):
        gammas = qstate.gellmann_basis(d)
        gram = np.einsum("aij,bji->ab", gammas, gammas).real
        worst = np.maximum(worst, np.abs(gram - np.eye(d * d - 1)).max())
        worst = np.maximum(worst, np.abs(np.trace(gammas, axis1=1, axis2=2)).max())
    yield "qstate", "gellmann-orthonormality", 7, worst, 1e-12

    worst_affine = worst_round = worst_norm = 0.0
    per_d = max(5, cfg.selftest_count // 20)
    for d in (2, 3, 4, 6):
        for _ in range(per_d):
            kets = qstate.haar_random_pure(d, rng, size=2 * d)
            povm = qstate.square_root_measurement(kets)
            det = qstate.povm_to_affine(povm)
            rho = qstate.random_density_hs(d, rng)
            r = qstate.state_to_bloch(rho)
            p_affine = qstate.affine_response(det, r)
            p_born = qstate.born_probabilities(rho, povm)
            worst_affine = np.maximum(worst_affine, np.abs(p_affine - p_born).max())
            worst_norm = np.maximum(worst_norm, abs(p_born.sum() - 1.0))
            rho_back = qstate.bloch_to_state(r)
            worst_round = np.maximum(worst_round, np.abs(rho_back - rho).max())
    yield "qstate", "affine-vs-born", 4 * per_d, worst_affine, 1e-12
    yield "qstate", "bloch-round-trip", 4 * per_d, worst_round, 1e-12
    yield "qstate", "born-normalisation", 4 * per_d, worst_norm, 1e-9

    worst_comp = 0.0
    cases = 0
    for d in (2, 3, 4):
        for m in range(d, 3 * d + 1):
            kets = qstate.haar_random_pure(d, rng, size=m)
            povm = qstate.square_root_measurement(kets)
            worst_comp = np.maximum(worst_comp, np.abs(povm.sum(axis=0) - np.eye(d)).max())
            cases += 1
    yield "qstate", "srm-completeness", cases, worst_comp, 1e-9


def _protocols_suite(cfg: bench.ExperimentConfig, rng):
    d = 3
    n_aug = d * d
    count = max(10, cfg.selftest_count // 4)

    # A_s = A_p at full column rank, M <= n + 1, and ||A_s|| >= ||A_p|| beyond
    hs = matlib.hs_norm
    for name, M_low, m_extra, gap, tol in (
            ("equivalence-full-rank", 3, 6, lambda a_s, a_p: hs(a_s - a_p) / hs(a_p), 1e-8),
            ("norm-inequality", n_aug + 1, 8, lambda a_s, a_p: hs(a_s) - hs(a_p), 1e-10)):
        worst = 0.0
        for _ in range(count):
            M = int(rng.integers(M_low, M_low + 7))
            m = int(rng.integers(M, M + m_extra))
            _, probes, patterns = bench.srm_setup(d, m, M, 0.03, rng)
            worst = np.maximum(worst, gap(*bench._inversion_matrices(probes, patterns)))
        yield "protocols", name, count, worst, tol

    # noise model: empirical mean of ||A dp||^2 against eps^2 ||A||^2 / m
    a = rng.standard_normal((6, 9))
    inv = np.vstack([np.ones(9), a])
    eps = 0.05
    draws = rng.standard_normal((20000, 9))
    draws *= eps / np.linalg.norm(draws, axis=1, keepdims=True)
    empirical = np.mean(np.sum((draws @ a.T) ** 2, axis=1))
    predicted = protocols.mse_theoretical(inv, eps, 9)
    yield ("protocols", "noise-model-consistency", 20000,
           abs(empirical - predicted) / predicted, 0.03)

    worst_gw = 0.0
    for _ in range(max(5, count // 2)):
        M = int(rng.integers(n_aug + 1, n_aug + 6))
        m = int(rng.integers(d, n_aug))
        _, probes, patterns = bench.srm_setup(d, m, M, 0.03, rng)
        f = patterns.f_matrix
        r = probes.r_matrix
        a_s = protocols.standard_inversion_matrix(patterns, probes)
        h, g = matlib.gw_decompose(f, matlib.pinv(r))
        bridged = r @ (h + g) @ matlib.pinv(f)
        worst_gw = np.maximum(worst_gw, matlib.hs_norm(a_s - bridged) / matlib.hs_norm(a_s))
    yield "protocols", "gw-bridge", max(5, count // 2), worst_gw, 1e-9

    worst_unbiased = 0.0
    for _ in range(10):
        detector, probes, patterns = bench.srm_setup(d, n_aug + 2, n_aug + 3, 0.0, rng)
        rho = qstate.random_density_hs(d, rng)
        r = qstate.state_to_bloch(rho)
        data = qstate.affine_response(detector, r)
        for build in (protocols.standard_inversion_matrix, protocols.pattern_inversion_matrix):
            inv = build(patterns, probes)
            r_hat, valid = protocols.estimate_batch(inv, data[:, None])
            error = np.abs(r_hat[:, 0] - r).max() if valid[0] else np.inf
            worst_unbiased = np.maximum(worst_unbiased, error)
    yield "protocols", "zero-noise-unbiasedness", 10, worst_unbiased, 1e-8


@bench._numerics()
def run_selftest(cfg: bench.ExperimentConfig) -> tuple:
    """The checks (suite, name, count, worst, tol) of the matlib, qstate and
    protocols invariant suites, under a run's numerics (bench._numerics).
    A config made for another experiment raises ConfigError."""
    bench._require_experiment(cfg, "selftest")
    rng = bench._rng(cfg.seed, bench._TAG_SELFTEST)
    return (*_matlib_suite(cfg, rng), *_qstate_suite(cfg, rng), *_protocols_suite(cfg, rng))
