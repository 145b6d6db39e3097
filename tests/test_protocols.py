"""Tests for the two linear-inversion protocols, noise injection, MSE
models and the limiting-case diagnostics."""

from collections import namedtuple

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import spearmanr

import oracles
from tomolin import matlib, protocols, qstate

# one frozen experiment: detector, probes, their patterns, data-noise ratio
Setup = namedtuple("Setup", "detector probes patterns noise_data")


def make_random_setup(d, m, M, rng, pattern_ratio=0.03, data_ratio=0.06):
    povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=m))
    detector = qstate.povm_to_affine(povm)
    rhos = qstate.random_density_hs(d, rng, size=M)
    probes = protocols.ProbeSet.from_blochs(qstate.state_to_bloch(rhos).T)
    patterns = protocols.collect_patterns(detector, probes, pattern_ratio, rng)
    return Setup(detector, probes, patterns, data_ratio)


def estimate(inv, f):
    """The estimate of one data vector: its column of estimate_batch,
    which must be valid."""
    r_hat, valid = protocols.estimate_batch(inv, np.asarray(f)[:, None])
    assert valid[0]
    return r_hat[:, 0]


def trial_mse(setup, d, inv, n_trials, rng):
    """MSE of inv over fresh true states and fresh data noise, by the path
    every experiment takes."""
    true_blochs = qstate.random_blochs(d, n_trials, rng)
    data = protocols.trial_data(setup.detector, true_blochs, setup.noise_data, rng)
    return protocols.batch_mse(inv, data, true_blochs)


def _add_noise_reference(p, ratio, rng):
    # add_noise as the sum of the input and a separate noise array, kept as
    # the bit-exact reference of the one-buffer form
    arr = np.asarray(p, dtype=float)
    if ratio == 0.0:
        return arr.copy()
    vec = arr.ndim == 1
    cols = arr[:, None] if vec else arr
    rms = np.sqrt(np.mean(cols**2, axis=0, keepdims=True))
    out = cols + rng.standard_normal(cols.shape) * (ratio * rms)
    return out[:, 0] if vec else out


class TestAddNoise:
    def test_zero_value_is_identity(self):
        rng = np.random.default_rng(1)
        p = np.array([0.2, 0.3, 0.5])
        assert_allclose(protocols.add_noise(p, 0.0, rng), p)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            protocols.add_noise(np.array([0.2, 0.3, 0.5]), -0.1, np.random.default_rng(2))

    @pytest.mark.parametrize("ratio", [0.06, 0.0], ids="{}-ratio".format)
    @pytest.mark.parametrize("shape", ["1-D", "2-D", "broadcast"])
    def test_bits_equal_reference(self, ratio, shape):
        p = np.random.default_rng(5).random((13, 50))
        # the broadcast view repeats one column, as the homodyne data does
        given = {"1-D": p[:, 0].copy(), "2-D": p,
                 "broadcast": np.broadcast_to(p[:, :1], p.shape)}[shape]
        # the reference gets a contiguous copy, as the tiled homodyne data was
        before = given.copy()
        expected = _add_noise_reference(before, ratio, np.random.default_rng(6))
        result = protocols.add_noise(given, ratio, np.random.default_rng(6))
        assert np.array_equal(result, expected)
        assert np.array_equal(given, before)

    def test_ratio_mode_sigma(self):
        rng = np.random.default_rng(4)
        p = np.array([0.1, 0.5, 0.2, 0.2])
        draws = np.array([protocols.add_noise(p, 0.06, rng) - p for _ in range(25_000)])
        sigma = draws.std()
        expected = 0.06 * np.sqrt(np.mean(p**2))
        assert abs(sigma - expected) / expected < 0.02


class TestProbeAndPatternSets:
    def test_probe_set_augmentation(self):
        ps = protocols.ProbeSet.from_blochs(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert_allclose(ps.r_matrix[0], 1.0)
        assert ps.r_matrix.shape == (3, 2) and ps.n_probes == 2

    def test_probe_set_requires_ones_row(self):
        with pytest.raises(ValueError, match="ones"):
            protocols.ProbeSet(np.array([[0.5, 0.5], [0.1, 0.2]]))

    def test_probe_pinv_computed_once_per_rtol(self):
        rng = np.random.default_rng(14)
        ps = protocols.ProbeSet.from_blochs(rng.standard_normal((8, 12)))
        rp = ps.pinv()
        assert ps.pinv() is rp and not rp.flags.writeable
        assert np.array_equal(rp, matlib.pinv(ps.r_matrix))
        loose = ps.pinv(0.5)
        assert ps.pinv(0.5) is loose
        assert np.array_equal(loose, matlib.pinv(ps.r_matrix, rtol=0.5))
        assert ps.prefix(6).pinv().shape == (6, 9)

    def test_pattern_set_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            protocols.PatternSet(np.array([[np.nan, 1.0]]))

    def test_prefix_at_full_count_is_the_set(self):
        # so a probe set keeps its R+ through a prefix of all its probes
        rng = np.random.default_rng(15)
        ps = protocols.ProbeSet.from_blochs(rng.standard_normal((8, 12)))
        patterns = protocols.PatternSet(rng.standard_normal((5, 12)))
        rp = ps.pinv()
        assert ps.prefix(12) is ps and ps.prefix(12).pinv() is rp
        assert patterns.prefix(12) is patterns
        assert ps.prefix(6).n_probes == patterns.prefix(6).n_probes == 6


class TestCollectPatterns:
    def test_noiseless_collection_is_forward_map(self):
        rng = np.random.default_rng(11)
        setup = make_random_setup(3, 12, 10, rng, pattern_ratio=0.0)
        expected = setup.detector @ setup.probes.r_matrix
        assert_allclose(setup.patterns.f_matrix, expected, atol=1e-14)

    def test_maximally_mixed_probe_gives_offset(self):
        rng = np.random.default_rng(12)
        povm = qstate.square_root_measurement(qstate.haar_random_pure(3, rng, size=10))
        detector = qstate.povm_to_affine(povm)
        probes = protocols.ProbeSet.from_blochs(np.zeros((8, 1)))
        patterns = protocols.collect_patterns(detector, probes, 0.0, rng)
        assert_allclose(patterns.f_matrix[:, 0], detector[:, 0], atol=1e-14)

    def test_columns_match_per_probe_evaluation(self):
        rng = np.random.default_rng(13)
        setup = make_random_setup(3, 11, 7, rng, pattern_ratio=0.0)
        for alpha in range(7):
            r = setup.probes.r_matrix[1:, alpha]
            assert_allclose(setup.patterns.f_matrix[:, alpha],
                            qstate.affine_response(setup.detector, r), atol=1e-14)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(14)
        det = np.zeros((3, 6))
        probes = protocols.ProbeSet.from_blochs(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="augmented"):
            protocols.collect_patterns(det, probes, 0.0, rng)

    def test_overflowed_patterns_raise(self):
        # responses of 3e300 are finite, but their squares for the noise
        # RMS are not
        rng = np.random.default_rng(16)
        det = np.full((3, 3), 1e300)
        probes = protocols.ProbeSet.from_blochs(np.ones((2, 4)))
        assert np.all(protocols.collect_patterns(det, probes, 0.0, rng).f_matrix == 3e300)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflowed"):
            protocols.collect_patterns(det, probes, 0.03, rng)


class TestInversionMatrices:
    def test_square_invertible_probe_matrix_gives_equality(self):
        # with R square and invertible, R+ = R^-1 and the two protocols
        # coincide by plain matrix algebra
        rng = np.random.default_rng(21)
        setup = make_random_setup(2, 6, 4, rng)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        assert np.linalg.cond(setup.probes.r_matrix) < 1e3
        assert matlib.hs_norm(a_s - a_p) / matlib.hs_norm(a_p) < 1e-10

    def test_equivalence_in_full_column_rank_regime(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n_aug = d * d
            M = int(rng.integers(2, n_aug + 1))
            m = int(rng.integers(max(M, d), max(M, d) + 5))
            setup = make_random_setup(d, m, M, rng)
            a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
            a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
            rel = matlib.hs_norm(a_s - a_p) / matlib.hs_norm(a_p)
            assert rel < 1e-8

    def test_norm_inequality_in_overcomplete_regime(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n_aug = d * d
            M = int(rng.integers(n_aug + 1, n_aug + 8))
            m = int(rng.integers(M, M + 8))
            setup = make_random_setup(d, m, M, rng)
            a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
            a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
            assert matlib.hs_norm(a_s) <= matlib.hs_norm(a_p) + 1e-10

    def test_noiseless_forward_backward(self):
        rng = np.random.default_rng(24)
        setup = make_random_setup(3, 12, 20, rng, pattern_ratio=0.0)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        for _ in range(5):
            rho = qstate.random_density_hs(3, rng)
            r = qstate.state_to_bloch(rho)
            p = qstate.affine_response(setup.detector, r)
            assert_allclose(estimate(a_s, p), r, atol=1e-8)

    def test_pattern_exact_fit_recovers_probe(self):
        rng = np.random.default_rng(25)
        setup = make_random_setup(3, 12, 7, rng, pattern_ratio=0.0)
        a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        alpha = 3
        est = estimate(a_p, setup.patterns.f_matrix[:, alpha])
        assert_allclose(est, setup.probes.r_matrix[1:, alpha], atol=1e-9)

    def test_gw_bridge_between_protocols(self):
        # the standard matrix factors through the product decomposition of
        # F and R+ since (R+)+ = R
        rng = np.random.default_rng(26)
        setup = make_random_setup(3, 7, 14, rng)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        f = setup.patterns.f_matrix
        r = setup.probes.r_matrix
        h, g = matlib.gw_decompose(f, matlib.pinv(r))
        bridged = r @ (h + g) @ matlib.pinv(f)
        assert matlib.hs_norm(a_s - bridged) / matlib.hs_norm(a_s) < 1e-9

    def test_oracle_inversion(self):
        rng = np.random.default_rng(27)
        setup = make_random_setup(2, 6, 4, rng)
        inv = matlib.pinv(setup.detector)
        rho = qstate.random_density_hs(2, rng)
        r = qstate.state_to_bloch(rho)
        assert_allclose(estimate(inv, qstate.affine_response(setup.detector, r)), r, atol=1e-10)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count"):
            protocols.standard_inversion_matrix(
                protocols.PatternSet(np.zeros((3, 4))),
                protocols.ProbeSet(np.vstack([np.ones(5), np.zeros((2, 5))])),
            )


class TestEstimate:
    def test_unconstrained_estimates_may_leave_bloch_ball(self):
        # the linear estimator applies no physicality projection
        rng = np.random.default_rng(31)
        setup = make_random_setup(2, 4, 4, rng, data_ratio=0.5)
        inv = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        radius = np.sqrt(1.0 / 2.0)
        left = 0
        for _ in range(200):
            rho = qstate.random_density_hs(2, rng)
            r = qstate.state_to_bloch(rho)
            f = protocols.add_noise(qstate.affine_response(setup.detector, r), setup.noise_data, rng)
            if np.linalg.norm(estimate(inv, f)) > radius:
                left += 1
        assert left > 0

    def test_degenerate_lead_raises(self):
        # the column is flagged invalid, and a batch of such columns fails
        inv = np.zeros((4, 3))
        _, valid = protocols.estimate_batch(inv, np.ones((3, 1)))
        assert not valid[0]
        with pytest.raises(protocols.EstimationFailureError):
            protocols.batch_mse(inv, np.ones((3, 1)), np.zeros((3, 1)))

    def test_equivalence_regime_paired_estimates(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            setup = make_random_setup(3, 11, 8, rng)
            a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
            a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
            rho = qstate.random_density_hs(3, rng)
            r = qstate.state_to_bloch(rho)
            f = protocols.add_noise(qstate.affine_response(setup.detector, r), setup.noise_data, rng)
            assert np.abs(estimate(a_s, f) - estimate(a_p, f)).max() < 1e-8


class TestEstimateBatch:
    def test_valid_mask_at_the_lead_floor(self):
        # the identity reads the leading coordinate off each column exactly
        inv = np.eye(3)
        floor = protocols.LEAD_FLOOR
        below = np.nextafter(floor, 0.0)
        fmat = np.vstack([[floor, below, -floor, -below, 0.0], np.ones((2, 5))])
        estimates, valid = protocols.estimate_batch(inv, fmat)
        assert valid.tolist() == [True, False, True, False, False]
        assert_allclose(estimates[:, valid], [[1 / floor, -1 / floor]] * 2, rtol=1e-15)

    def test_degenerate_column_leaves_other_columns_unchanged(self):
        rng = np.random.default_rng(71)
        inv = rng.standard_normal((9, 30))
        fmat = rng.standard_normal((30, 200))
        estimates, valid = protocols.estimate_batch(inv, fmat)
        assert valid.all()
        fmat[:, 17] = 0.0
        degenerate, valid = protocols.estimate_batch(inv, fmat)
        assert np.flatnonzero(~valid).tolist() == [17]
        others = np.arange(200) != 17
        assert np.array_equal(degenerate[:, others], estimates[:, others])

    def test_one_column_call(self):
        # a one-column call has the bits of the matrix-vector estimate; a
        # column of a wider batch goes through another BLAS kernel and may
        # differ in the last bits
        rng = np.random.default_rng(72)
        inv = rng.standard_normal((16, 130))
        fmat = rng.standard_normal((130, 50))
        estimates, _ = protocols.estimate_batch(inv, fmat)
        for j in range(50):
            column, valid = protocols.estimate_batch(inv, fmat[:, j:j + 1])
            raw = inv @ fmat[:, j]
            assert valid.tolist() == [True]
            assert np.array_equal(column[:, 0], raw[1:] / raw[0])
            assert_allclose(column[:, 0], estimates[:, j], rtol=1e-12, atol=1e-12)


class TestBatchMse:
    def _batch(self, failures):
        # 200 columns whose estimates are all exact but for the degenerate ones
        rng = np.random.default_rng(73)
        true_blochs = rng.standard_normal((3, 200))
        inv = np.eye(4)
        data = np.vstack([np.ones(200), true_blochs])
        data[0, :failures] = 0.0
        return inv, data, true_blochs

    def test_failures_within_budget_are_excluded(self):
        inv, data, true_blochs = self._batch(2)  # exactly 1% of 200
        data[1:, 2] += 0.1
        assert protocols.batch_mse(inv, data, true_blochs) == pytest.approx(0.03 / 198)

    def test_one_failure_over_budget_raises(self):
        inv, data, true_blochs = self._batch(3)
        with pytest.raises(protocols.EstimationFailureError, match="3/200"):
            protocols.batch_mse(inv, data, true_blochs)

    def test_non_finite_mean_raises(self):
        inv, data, true_blochs = self._batch(0)
        data[1, 5] = 1e200  # its squared error overflows
        with np.errstate(over="ignore"), \
                pytest.raises(protocols.EstimationFailureError, match="not finite"):
            protocols.batch_mse(inv, data, true_blochs)


class TestMseTheoretical:
    def test_identity_matrix(self):
        n = 6
        inv = np.vstack([np.zeros(n), np.eye(n)])
        assert protocols.mse_theoretical(inv, 0.1, n) == pytest.approx(0.01)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(41)
        mat = np.vstack([np.ones(5), rng.standard_normal((3, 5))])
        base = protocols.mse_theoretical(mat, 0.2, 5)
        scaled = protocols.mse_theoretical(3.0 * mat, 0.2, 5)
        # the constant row does not enter, only the de-augmented block
        assert scaled == pytest.approx(9.0 * base)

    def test_against_sphere_noise_sampling(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 7))
        inv = np.vstack([np.ones(7), a])
        eps = 0.03
        draws = rng.standard_normal((30_000, 7))
        draws *= eps / np.linalg.norm(draws, axis=1, keepdims=True)
        empirical = np.mean(np.sum((draws @ a.T) ** 2, axis=1))
        assert empirical == pytest.approx(protocols.mse_theoretical(inv, eps, 7), rel=0.03)

    def test_input_validation(self):
        inv = np.ones((2, 2))
        with pytest.raises(ValueError):
            protocols.mse_theoretical(inv, -0.1, 2)
        with pytest.raises(ValueError):
            protocols.mse_theoretical(inv, 0.1, 0)


class TestMseEmpirical:
    def test_zero_noise_hits_numerical_floor(self):
        rng = np.random.default_rng(51)
        setup = make_random_setup(3, 12, 10, rng, pattern_ratio=0.0, data_ratio=0.0)
        for build in (protocols.standard_inversion_matrix, protocols.pattern_inversion_matrix):
            inv = build(setup.patterns, setup.probes)
            assert trial_mse(setup, 3, inv, 50, np.random.default_rng(1)) < 1e-16

    def test_noise_quadrupling(self):
        # clean patterns so the error is purely data noise, which the
        # estimator maps linearly
        rng = np.random.default_rng(52)
        setup1 = make_random_setup(3, 14, 12, rng, pattern_ratio=0.0, data_ratio=0.02)
        setup2 = setup1._replace(noise_data=0.04)
        inv = protocols.pattern_inversion_matrix(setup1.patterns, setup1.probes)
        m1 = trial_mse(setup1, 3, inv, 4000, np.random.default_rng(2))
        m2 = trial_mse(setup2, 3, inv, 4000, np.random.default_rng(2))
        assert m2 / m1 == pytest.approx(4.0, rel=0.1)

    def test_equivalence_regime_paired_mse(self):
        rng = np.random.default_rng(53)
        setup = make_random_setup(3, 11, 8, rng)
        a_s = protocols.standard_inversion_matrix(setup.patterns, setup.probes)
        a_p = protocols.pattern_inversion_matrix(setup.patterns, setup.probes)
        m_std = trial_mse(setup, 3, a_s, 500, np.random.default_rng(3))
        m_pat = trial_mse(setup, 3, a_p, 500, np.random.default_rng(3))
        assert m_std == pytest.approx(m_pat, rel=1e-6)


class TestLimitingCaseDiagnostics:
    def test_requires_redundant_probes(self):
        rng = np.random.default_rng(61)
        setup = make_random_setup(3, 11, 8, rng)
        with pytest.raises(ValueError, match="redundant"):
            oracles.limiting_case_diagnostics(setup.patterns, setup.probes)

    def test_projector_spectrum_bounds(self):
        rng = np.random.default_rng(62)
        setup = make_random_setup(3, 9, 20, rng)
        diag = oracles.limiting_case_diagnostics(setup.patterns, setup.probes)
        assert diag.h_norm >= np.sqrt(diag.h_rank) - 1e-9
        assert diag.u11_norm <= diag.u11_bound + 1e-9
        assert diag.hs_norm_standard > 0 and diag.hs_norm_pattern > 0

    def test_factorises_r_and_f_once(self, monkeypatch):
        rng = np.random.default_rng(64)
        setup = make_random_setup(3, 12, 20, rng)
        shapes = []
        svd = matlib.svd

        def counting(x, rtol=None):
            shapes.append(np.shape(x))
            return svd(x, rtol=rtol)

        monkeypatch.setattr(matlib, "svd", counting)
        oracles.limiting_case_diagnostics(setup.patterns, setup.probes)
        # R is 9 x 20, F is 12 x 20 and F R+ is 12 x 9; the other two are
        # the 20 x 20 projector argument and h
        assert shapes.count((9, 20)) == 1
        assert shapes.count((12, 20)) == 1
        assert shapes.count((12, 9)) == 1
        assert len(shapes) == 5

    def test_overcomplete_measurement_norm_ordering(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            setup = make_random_setup(2, 14, 10, rng)  # m >= M > n+1
            diag = oracles.limiting_case_diagnostics(setup.patterns, setup.probes)
            assert diag.hs_norm_standard <= diag.hs_norm_pattern + 1e-10

    def test_minimal_measurement_trend_with_probe_count(self):
        # at a minimal augmented outcome count the standard-to-pattern norm
        # ratio grows with the probe surplus; geometric mean over setups
        # with nested probe sets tames the heavy tail of the ratio
        rng = np.random.default_rng(60)
        d = 4
        n_aug = d * d
        m_values = (17, 18, 20, 24, 32)
        n_setups = 120
        logs = np.zeros((n_setups, len(m_values)))
        for s in range(n_setups):
            povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=n_aug))
            detector = qstate.povm_to_affine(povm)
            rhos = qstate.random_density_hs(d, rng, size=max(m_values))
            probes = protocols.ProbeSet.from_blochs(qstate.state_to_bloch(rhos).T)
            patterns = protocols.collect_patterns(detector, probes, 0.03, rng)
            for j, M in enumerate(m_values):
                diag = oracles.limiting_case_diagnostics(patterns.prefix(M), probes.prefix(M))
                logs[s, j] = np.log(diag.hs_norm_standard / diag.hs_norm_pattern)
        geo_curve = np.exp(logs.mean(axis=0))
        assert geo_curve[-1] > geo_curve[0]
        assert spearmanr(m_values, geo_curve).statistic >= 0.9 - 1e-6
