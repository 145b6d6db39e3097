"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  The statistical-trend criteria use the fixed default
seeds of the bench configurations, so the whole gate is deterministic.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import oracles
from tomolin import bench, homodyne, matlib, protocols, qstate
from tomolin.selftest import penrose_with_properties


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_matrix(rng, max_dim=64):
    rows = int(rng.integers(1, max_dim + 1))
    cols = int(rng.integers(1, max_dim + 1))
    x = rng.standard_normal((rows, cols))
    style = int(rng.integers(0, 3))
    if style == 1:
        x = x + 1j * rng.standard_normal((rows, cols))
    elif style == 2 and min(rows, cols) > 1:
        rank = int(rng.integers(1, min(rows, cols)))
        x = x[:, :rank] @ rng.standard_normal((rank, cols))
    return x


def test_criterion_1_pseudoinverse_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        x = random_matrix(rng)
        xp = matlib.pinv(x)
        penrose, props = penrose_with_properties(x, xp)
        worst = np.max((worst, penrose, props))
    elapsed = time.monotonic() - start
    report(1, worst < 1e-9 and elapsed < 30.0,
           f"500 matrices up to 64x64, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_product_decomposition_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst_recon = worst_orth = worst_min = 0.0
    for _ in range(200):
        x = random_matrix(rng, max_dim=12)
        if x.shape[1] < 2:
            x = rng.standard_normal((x.shape[0], 3))
        y = rng.standard_normal((x.shape[1], int(rng.integers(2, 13))))
        if np.iscomplexobj(x):
            y = y + 1j * rng.standard_normal(y.shape)
        h, g = matlib.gw_decompose(x, y)
        xp = matlib.pinv(x)
        yp = matlib.pinv(y)
        lhs = matlib.pinv(x @ y)
        rhs = yp @ (h + g) @ xp
        worst_recon = np.maximum(worst_recon,
                                 np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30))
        denom = max(np.linalg.norm(g) * np.linalg.norm(h), 1.0)
        worst_orth = np.maximum(worst_orth, abs(np.trace(g.conj().T @ h)) / denom)
        base = np.linalg.norm(rhs)
        for _ in range(100):
            z = matlib.admissible_perturbation(x, y, rng)
            alt = np.linalg.norm(yp @ (h + z) @ xp)
            worst_min = np.maximum(worst_min, (base - alt) / max(base, 1e-30))
    elapsed = time.monotonic() - start
    ok = worst_recon < 1e-9 and worst_orth < 1e-9 and worst_min < 1e-10 and elapsed < 60.0
    report(2, ok, "200 pairs x 100 perturbations: "
           f"reconstruction {worst_recon:.2e}, orthogonality {worst_orth:.2e}, "
           f"minimality slack {worst_min:.2e}, {elapsed:.1f}s")


def test_criterion_3_equivalence_theorem():
    rng = np.random.default_rng(1003)
    worst_matrix = worst_estimate = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        n_aug = d * d
        M = int(rng.integers(2, n_aug + 1))
        m = int(rng.integers(max(M, d), max(M, d) + 6))
        setup = oracles.random_setup(d, m, M, rng)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        rel = matlib.hs_norm(a_s - a_p) / matlib.hs_norm(a_p)
        worst_matrix = np.maximum(worst_matrix, rel)
        rho = qstate.random_density_hs(d, rng)
        r = qstate.state_to_bloch(rho)
        f = protocols.add_noise(qstate.affine_response(setup.detector, r), setup.noise_data, rng)
        est_s, valid_s = protocols.estimate_batch(a_s, f[:, None])
        est_p, valid_p = protocols.estimate_batch(a_p, f[:, None])
        assert valid_s[0] and valid_p[0]
        diff = np.abs(est_s - est_p).max()
        worst_estimate = np.maximum(worst_estimate, diff)
    ok = worst_matrix < 1e-8 and worst_estimate < 1e-8
    report(3, ok, "200 full-column-rank setups: worst matrix deviation "
           f"{worst_matrix:.2e}, worst paired-estimate deviation {worst_estimate:.2e}")


def test_criterion_4_norm_inequality():
    rng = np.random.default_rng(1004)
    holds = 0
    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(2, 4))
        n_aug = d * d
        M = int(rng.integers(n_aug + 1, n_aug + 10))
        m = int(rng.integers(M, M + 10))
        setup = oracles.random_setup(d, m, M, rng)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        gap = matlib.hs_norm(a_s) - matlib.hs_norm(a_p)
        worst = np.maximum(worst, gap)
        holds += gap <= 1e-10
    report(4, holds == 200,
           f"overcomplete regime: {holds}/200 setups satisfy |A_s| <= |A_p| "
           f"(worst gap {worst:.2e})")


def test_criterion_5_mse_model():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for shape in ((6, 10), (15, 20), (8, 30)):
        a = rng.standard_normal(shape)
        inv = np.vstack([np.ones(shape[1]), a])
        eps = 0.05
        m = shape[1]
        draws = rng.standard_normal((100_000, m))
        draws *= eps / np.linalg.norm(draws, axis=1, keepdims=True)
        empirical = float(np.mean(np.sum((draws @ a.T) ** 2, axis=1)))
        predicted = protocols.mse_theoretical(inv, eps, m)
        worst = np.maximum(worst, abs(empirical - predicted) / predicted)
    report(5, worst < 0.01,
           f"sphere-noise model at 1e5 draws: worst relative deviation {worst:.2%}")


@pytest.fixture(scope="module")
def probes_sweep(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance") / "fig2.csv")
    cfg = bench.ExperimentConfig(
        experiment="sweep-probes", d=4, m_values=(18, 20, 24),
        M_values=(18, 20, 22, 24, 30, 60), ensembles=50, trials=500,
        noise_ratio_patterns=0.03, noise_ratio_data=0.06, seed=42,
        out=out, workers=1,
    )
    start = time.monotonic()
    rows = bench.run_sweep_probes(cfg)
    return cfg, rows, time.monotonic() - start


def test_criterion_6_probe_sweep_trend(probes_sweep):
    cfg, rows, elapsed = probes_sweep
    m_gate = 18
    curve = []
    for M in cfg.M_values:
        ratios = [e2_std / e2_pat for row_m, row_M, _, e2_std, e2_pat in rows
                  if row_m == m_gate and row_M == M]
        assert len(ratios) == cfg.ensembles
        curve.append(float(np.mean(ratios)))
    trend = spearmanr(cfg.M_values, curve).statistic
    final = curve[-1]
    ok = trend > 0.9 and final > 1.0 and elapsed < 600.0
    detail = (f"m=18 mean-ratio curve {[f'{v:.2f}' for v in curve]}, "
              f"Spearman {trend:.3f}, ratio at M=60 {final:.2f}, {elapsed:.0f}s")
    report(6, ok, detail)


def test_criterion_7_outcome_sweep_endpoints():
    start = time.monotonic()
    cfg = bench.ExperimentConfig(
        experiment="sweep-outcomes", d=4, m_values=tuple(range(16, 61, 4)),
        M_values=(30,), ensembles=50, trials=500, seed=42,
    )
    rows = bench.run_sweep_outcomes(cfg)
    elapsed = time.monotonic() - start

    def mean_ratio(m):
        vals = [e2_std / e2_pat for row_m, _, _, e2_std, e2_pat in rows if row_m == m]
        return float(np.mean(vals))

    low, high = mean_ratio(16), mean_ratio(60)
    ok = low > 1.0 and high < 1.0 and elapsed < 600.0
    report(7, ok, f"M=30: ratio {low:.1f} at m=16 (>1), {high:.3f} at m=60 (<1), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def homodyne_sweep(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance-h") / "fig5.csv")
    cfg = bench.ExperimentConfig(
        experiment="homodyne", d=4, m_values=tuple(range(12, 49)),
        M_values=(40,), ensembles=20, trials=100, seed=42, out=out, workers=1,
    )
    start = time.monotonic()
    rows = bench.run_homodyne(cfg)
    return cfg, rows, out, time.monotonic() - start


def test_criterion_8_homodyne_resonances(homodyne_sweep):
    cfg, rows, _, elapsed = homodyne_sweep
    n = cfg.n_params
    minimal_m = n + 1  # minimal informationally complete point in augmented counting
    M = cfg.M_values[0]
    ms = np.array(cfg.m_values)
    std_curve = np.array([np.mean([r[3] for r in rows if r[0] == m]) for m in ms])
    pat_curve = np.array([np.mean([r[4] for r in rows if r[0] == m]) for m in ms])
    std_peak = int(ms[np.argmax(std_curve)])
    pat_peak = int(ms[np.argmax(pat_curve)])
    sep = std_curve[list(ms).index(minimal_m)] / pat_curve[list(ms).index(minimal_m)]
    ok = (abs(std_peak - minimal_m) <= 2 and abs(pat_peak - M) <= 2
          and sep >= 3.0 and elapsed < 600.0)
    report(8, ok, f"standard peak m={std_peak} (minimal point {minimal_m}+-2), "
           f"pattern peak m={pat_peak} ({M}+-2), separation x{sep:.1f} at the "
           f"minimal point, {elapsed:.0f}s")


def test_criterion_9_wigner_checks(homodyne_sweep):
    cfg, _, out, _ = homodyne_sweep
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    one = np.zeros((4, 4), dtype=complex)
    one[1, 1] = 1.0
    axis = np.linspace(-5.0, 5.0, 201)
    w_vac = oracles.value_at(axis, homodyne.wigner(vac, axis), 0.0, 0.0)
    w_one = oracles.value_at(axis, homodyne.wigner(one, axis), 0.0, 0.0)
    amps = homodyne.true_signal(cfg.d)
    truth = homodyne.wigner(np.outer(amps, amps.conj()), axis)
    w_sig = oracles.value_at(axis, truth, 0.0, 0.0)
    points = cfg.wigner_points
    _, _, w = np.loadtxt(f"{out[:-4]}_wigner_pattern_m{cfg.n_params + 1}.csv",
                         delimiter=",", skiprows=1, unpack=True)
    recon = w.reshape(points, points)
    sign_ok = truth.min() < 0 and recon.min() < 0
    ok = (abs(w_vac - 1 / np.pi) < 1e-8 and abs(w_one + 1 / np.pi) < 1e-8
          and abs(w_sig - 1 / (3 * np.pi)) < 1e-6 and sign_ok)
    report(9, ok, f"W(0,0): vacuum {w_vac:.6f}, single photon {w_one:.6f}, "
           f"signal {w_sig:.6f}; reconstruction min W {recon.min():.4f} "
           f"(true {truth.min():.4f}), negativity sign recovered")


def test_criterion_10_byte_identical_reruns(probes_sweep, tmp_path):
    cfg, _, _ = probes_sweep
    from dataclasses import replace
    out2 = str(tmp_path / "fig2-w2.csv")
    bench.run_sweep_probes(replace(cfg, out=out2, workers=2))
    with open(cfg.out, "rb") as fh:
        first = fh.read()
    with open(out2, "rb") as fh:
        second = fh.read()
    report(10, first == second,
           f"workers=1 vs workers=2 rerun: {len(first)} bytes, identical={first == second}")
