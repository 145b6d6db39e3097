"""Tests for the continuous-variable layer: coherent states, the loss
channel, quadrature functionals and Wigner functions."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

import oracles
from tomolin import homodyne, qstate


# Loop forms of the batched homodyne code, kept as its bit-exact reference:
# scalar draws in alternating order, the scalar Hermite recursion, the
# three-operand Heisenberg einsum and np.linalg.norm on one vector.

def _hermite_loop(x, d_f):
    psi = np.zeros(d_f)
    psi[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if d_f > 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, d_f):
        psi[n] = np.sqrt(2.0 / n) * x * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def _coherent_loop(alpha, d_f):
    n = np.arange(d_f)
    c = alpha**n * np.exp(-0.5 * np.cumsum(np.log(np.maximum(n, 1))))
    return c / np.linalg.norm(c)


def _wigner_scipy_loop(rho, x_axis, p_axis=None):
    # the Laguerre-form Wigner function on the whole grid at once, with one
    # scipy genlaguerre per Fock pair, in the kernel's operation order
    xg, pg = np.meshgrid(x_axis, x_axis if p_axis is None else p_axis, indexing="ij")
    r2 = xg**2 + pg**2
    gauss, z, two_r2 = np.exp(-r2) / np.pi, xg - 1j * pg, 2.0 * r2
    values = np.zeros(gauss.shape, dtype=complex)

    def kernel(m, n):
        pref = gauss * (-1.0) ** n
        pref = pref * np.sqrt(2.0 ** (m - n) * math.factorial(n) / math.factorial(m))
        return pref * z ** (m - n) * scipy.special.genlaguerre(n, m - n)(two_r2)

    for m in range(rho.shape[0]):
        values += rho[m, m].real * kernel(m, m)
        for n in range(m):
            values += 2.0 * np.real(rho[m, n] * kernel(m, n))
    return values.real


def _integral(grid):
    # the Riemann sum of a Wigner grid over the (x, p) plane
    dx = grid.x_axis[1] - grid.x_axis[0]
    dp = grid.p_axis[1] - grid.p_axis[0]
    return float(grid.values.sum() * dx * dp)


def _measurement_loop(m, eta, rng, d_f, dx=0.1, x_max=5.0):
    ks = homodyne.kraus_operators(d_f, eta)
    points, effects = [], []
    for _ in range(m):
        theta = float(rng.uniform(0.0, np.pi))
        x = float(rng.uniform(-x_max, x_max))
        amp = _hermite_loop(x, d_f) * np.exp(1j * np.arange(d_f) * theta)
        op = np.outer(amp, amp.conj())
        points.append((theta, x))
        effects.append(dx * np.einsum("kji,jl,klm->im", ks.conj(), op, ks))
    return points, np.array(effects)


class TestCoherentState:
    def test_vacuum(self):
        assert_allclose(homodyne.coherent_state_fock(0.0, 5), [1, 0, 0, 0, 0], atol=1e-15)

    def test_unit_norm(self):
        for alpha in (0.3, 0.8j, 0.5 - 0.6j, 1.9):
            c = homodyne.coherent_state_fock(alpha, 8)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_truncated_tail_weight(self):
        # series oracle: tail = e^{-|a|^2} sum_{n>=6} |a|^{2n} / n!
        alpha = 0.8
        tail = math.exp(-alpha**2) * sum(alpha ** (2 * n) / math.factorial(n) for n in range(6, 40))
        assert tail == pytest.approx(5.53e-5, rel=0.01)
        assert 1.0 - tail >= 1.0 - 1e-3  # captured weight within truncation
        # the truncated amplitudes match the renormalised exact series
        c = homodyne.coherent_state_fock(alpha, 6)
        exact = np.array([alpha**n * math.exp(-alpha**2 / 2) / math.sqrt(math.factorial(n)) for n in range(6)])
        assert_allclose(c, exact / np.linalg.norm(exact), atol=1e-12)

    def test_amplitude_guard(self):
        with pytest.raises(ValueError, match="guard"):
            homodyne.coherent_state_fock(2.5, 10)
        with pytest.raises(ValueError, match="guard"):
            homodyne.coherent_state_fock(np.array([0.1, 0.5j, -2.01, 1.0]), 6)

    @pytest.mark.parametrize("d_f", [2, 3, 6, 14])
    def test_batch_rows_equal_scalar_calls(self, d_f):
        rng = np.random.default_rng(d_f)
        radii = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 30))
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 30))
        alphas = np.concatenate([[0.0, 2.0], radii * phases])
        batch = homodyne.coherent_state_fock(alphas, d_f)
        assert batch.shape == (32, d_f)
        for alpha, row in zip(alphas, batch):
            assert np.array_equal(row, homodyne.coherent_state_fock(alpha, d_f))
            assert np.array_equal(row, _coherent_loop(alpha, d_f))
        for alpha in (0.0, 0.3, 1.9, 0.5 - 0.6j):
            assert np.array_equal(homodyne.coherent_state_fock(alpha, d_f),
                                  _coherent_loop(alpha, d_f))


class TestTrueSignal:
    def test_normalised_probabilities(self):
        amps = homodyne.true_signal(6)
        assert_allclose(np.abs(amps[:3]) ** 2, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_unnormalised_weights(self):
        amps = homodyne.true_signal(4)
        ratios = np.abs(amps[:3]) ** 2 / np.abs(amps[0]) ** 2
        assert_allclose(ratios, [1.0, 2.0, 3.0], atol=1e-12)

    def test_no_support_beyond_two(self):
        amps = homodyne.true_signal(8)
        assert np.abs(amps[3:]).max() == 0.0

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            homodyne.true_signal(2)


class TestLossChannel:
    def test_unit_efficiency_is_identity(self):
        rng = np.random.default_rng(1)
        rho = qstate.random_density_hs(5, rng)
        assert np.abs(oracles.loss_channel(rho, 1.0) - rho).max() < 1e-12

    def test_zero_efficiency_gives_vacuum(self):
        rng = np.random.default_rng(2)
        rho = qstate.random_density_hs(5, rng)
        out = oracles.loss_channel(rho, 0.0)
        vac = np.zeros((5, 5))
        vac[0, 0] = 1.0
        assert np.abs(out - vac).max() < 1e-12

    def test_kraus_completeness_and_trace_preservation(self):
        rng = np.random.default_rng(3)
        for eta in (0.2, 0.8):
            ks = homodyne.kraus_operators(7, eta)
            total = np.einsum("kji,kjl->il", ks, ks)
            assert np.abs(total - np.eye(7)).max() < 1e-10
            rho = qstate.random_density_hs(7, rng)
            out = oracles.loss_channel(rho, eta)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(out)[0] > -1e-12

    def test_coherent_state_covariance(self):
        # |alpha> passes the channel as |sqrt(eta) alpha> within truncation
        alpha, eta, d_f = 0.7, 0.64, 18
        ket_in = homodyne.coherent_state_fock(alpha, d_f)
        out = oracles.loss_channel(np.outer(ket_in, ket_in.conj()), eta)
        ket_exp = homodyne.coherent_state_fock(np.sqrt(eta) * alpha, d_f)
        assert np.abs(out - np.outer(ket_exp, ket_exp.conj())).max() < 1e-6

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            homodyne.kraus_operators(4, 1.2)


class TestHermiteFunctions:
    def test_gaussian_peak(self):
        psi = homodyne.hermite_functions(0.0, 3)
        assert psi[0] == pytest.approx(np.pi ** -0.25, abs=1e-15)
        assert psi[1] == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.7, 3.0])
    def test_against_high_precision_oracle(self, x):
        # psi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} H_n(x) e^{-x^2/2} at 50 digits
        d_f = 65
        psi = homodyne.hermite_functions(x, d_f)
        with mpmath.workdps(50):
            for n in (0, 1, 8, 32, 64):
                ref = (mpmath.pi ** mpmath.mpf("-0.25")
                       / mpmath.sqrt(2**n * mpmath.factorial(n))
                       * mpmath.hermite(n, x) * mpmath.e ** (-x * x / 2))
                assert abs(psi[n] - float(ref)) <= 1e-10 * max(abs(float(ref)), 1e-30)

    @pytest.mark.parametrize("d_f", [1, 2, 6, 40])
    def test_batch_rows_equal_scalar_calls(self, d_f):
        xs = np.random.default_rng(d_f).uniform(-5.0, 5.0, 50)
        batch = homodyne.hermite_functions(xs, d_f)
        assert batch.shape == (50, d_f)
        for x, row in zip(xs, batch):
            assert np.array_equal(row, homodyne.hermite_functions(float(x), d_f))
            assert np.array_equal(row, _hermite_loop(float(x), d_f))


class TestQuadratureFunctional:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            oracles.QuadratureOutcome(theta=-0.1, x=0.0)
        with pytest.raises(ValueError):
            oracles.QuadratureOutcome(theta=0.5, x=6.0)

    def test_vacuum_amplitude_at_origin(self):
        op = oracles.quadrature_functional(oracles.QuadratureOutcome(0.7, 0.0), 4)
        assert op[0, 0].real == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-14)

    def test_phase_shift_parity(self):
        # the point (theta + pi, x) describes the same functional as (theta, -x)
        theta, x, d_f = 0.9, 1.3, 6
        op_neg = oracles.quadrature_functional(oracles.QuadratureOutcome(theta, -x), d_f)
        amp = homodyne.hermite_functions(x, d_f) * np.exp(1j * np.arange(d_f) * (theta + np.pi))
        op_shifted = np.outer(amp, amp.conj())
        assert np.abs(op_neg - op_shifted).max() < 1e-12

    def test_completeness_under_quadrature(self):
        # integrating |x><x| dx over x in [-8, 8] resolves the identity on
        # the truncated space
        d_f = 6
        xs = np.linspace(-8.0, 8.0, 3201)
        total = np.zeros((d_f, d_f), dtype=complex)
        for x in xs:
            total += oracles.quadrature_functional(oracles.QuadratureOutcome(0.9, x, x_max=8.0), d_f)
        total *= xs[1] - xs[0]
        assert np.abs(total - np.eye(d_f)).max() < 1e-4


class TestHomodyneMeasurement:
    def test_vacuum_probability_at_origin(self):
        meas = homodyne.HomodyneMeasurement(
            points=np.array([[0.3, 0.0]]),
            effects=np.array([0.1 * homodyne.loss_channel_adjoint(
                oracles.quadrature_functional(oracles.QuadratureOutcome(0.3, 0.0), 4), 1.0)]),
            eta=1.0, dx=0.1,
        )
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        p_vac = qstate.born_probabilities(vac, meas.effects)
        assert p_vac[0] == pytest.approx(0.1 / np.sqrt(np.pi), abs=1e-12)

    @pytest.mark.parametrize("d_f", [3, 4, 6, 8])
    def test_effects_equal_per_outcome_loop(self, d_f):
        for eta in (0.0, 0.3, 0.8, 1.0):
            for m in (1, 30, 130):
                seed = (d_f, int(10 * eta), m)
                meas = homodyne.homodyne_measurement(m, eta, np.random.default_rng(seed), d_f)
                points, effects = _measurement_loop(m, eta, np.random.default_rng(seed), d_f)
                assert [tuple(p) for p in meas.points.tolist()] == points
                assert np.array_equal(meas.effects, effects)
                per_outcome = np.array([
                    0.1 * homodyne.loss_channel_adjoint(oracles.quadrature_functional(
                        oracles.QuadratureOutcome(theta, x), d_f), eta)
                    for theta, x in meas.points.tolist()])
                assert np.array_equal(meas.effects, per_outcome)

    def test_linearity_in_the_state(self):
        rng = np.random.default_rng(11)
        meas = homodyne.homodyne_measurement(7, 0.8, rng, 5)
        rho1 = qstate.random_density_hs(5, rng)
        rho2 = qstate.random_density_hs(5, rng)
        a = 0.3
        mix = qstate.born_probabilities(a * rho1 + (1 - a) * rho2, meas.effects)
        p1, p2 = (qstate.born_probabilities(rho, meas.effects) for rho in (rho1, rho2))
        assert_allclose(mix, a * p1 + (1 - a) * p2, atol=1e-14)

    def test_outcome_distributions(self):
        rng = np.random.default_rng(12)
        meas = homodyne.homodyne_measurement(500, 0.8, rng, 4, x_max=3.0)
        thetas, xs = meas.points.T
        assert 0 <= thetas.min() and thetas.max() < np.pi
        assert np.abs(xs).max() <= 3.0

    def test_coherent_quadrature_mean(self):
        # the quadrature mean of a lossy coherent state is
        # sqrt(eta) * sqrt(2) * |alpha| * cos(arg(alpha) - theta)
        alpha, eta, theta, d_f = 0.6 * np.exp(0.8j), 0.8, 1.1, 24
        ket = homodyne.coherent_state_fock(alpha, d_f)
        rho_lossy = oracles.loss_channel(np.outer(ket, ket.conj()), eta)
        xs = np.linspace(-6.0, 6.0, 1201)
        dx = xs[1] - xs[0]
        weights = np.array([
            np.einsum("ij,ji->", oracles.quadrature_functional(
                oracles.QuadratureOutcome(theta, x, x_max=6.0), d_f), rho_lossy).real
            for x in xs
        ]) * dx
        mean = float(np.sum(xs * weights) / np.sum(weights))
        expected = np.sqrt(eta) * np.sqrt(2.0) * abs(alpha) * np.cos(np.angle(alpha) - theta)
        assert mean == pytest.approx(expected, abs=5e-4)


class TestWigner:
    def test_vacuum(self):
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        grid = homodyne.wigner(vac)
        assert grid.value_at(0.0, 0.0) == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert _integral(grid) == pytest.approx(1.0, abs=1e-3)
        # isotropy: same value at (x, p) and (p, x)
        assert grid.value_at(1.0, 0.4) == pytest.approx(grid.value_at(0.4, 1.0), abs=1e-12)

    def test_single_photon_negativity(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        grid = homodyne.wigner(rho)
        assert grid.value_at(0.0, 0.0) == pytest.approx(-1.0 / np.pi, abs=1e-12)
        assert grid.values.min() >= -1.0 / np.pi - 1e-6

    def test_true_signal_value_and_negativity(self):
        amps = homodyne.true_signal(6)
        grid = homodyne.wigner(np.outer(amps, amps.conj()))
        # parity sum (1 - 2 + 3)/6 / pi
        assert grid.value_at(0.0, 0.0) == pytest.approx(1.0 / (3.0 * np.pi), abs=1e-10)
        assert grid.values.min() < 0.0
        assert _integral(grid) == pytest.approx(1.0, abs=1e-3)

    def test_coherent_state_center(self):
        alpha = 0.5 + 0.3j
        ket = homodyne.coherent_state_fock(alpha, 14)
        grid = homodyne.wigner(np.outer(ket, ket.conj()))
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x_axis[i] == pytest.approx(np.sqrt(2) * alpha.real, abs=0.06)
        assert grid.p_axis[j] == pytest.approx(np.sqrt(2) * alpha.imag, abs=0.06)

    def test_normalisation_for_random_states(self):
        rng = np.random.default_rng(21)
        for d_f in (4, 8):
            rho = qstate.random_density_hs(d_f, rng)
            grid = homodyne.wigner(rho)
            assert _integral(grid) == pytest.approx(1.0, abs=1e-3)
            assert grid.values.min() >= -1.0 / np.pi - 1e-6

    def test_parity_sum_identity(self):
        rng = np.random.default_rng(22)
        rho = qstate.random_density_hs(5, rng)
        grid = homodyne.wigner(rho)
        parity = sum((-1) ** n * rho[n, n].real for n in range(5)) / np.pi
        assert grid.value_at(0.0, 0.0) == pytest.approx(parity, abs=1e-10)


class TestLaguerreKernel:
    def test_equals_scipy_genlaguerre(self):
        # 2 r^2 on the default 201 x 201 grid and on the 21-point grid of the
        # golden homodyne config, plus 0 and 1e3; the kernel is elementwise,
        # so each distinct value is evaluated once
        two_r2 = []
        for points in (201, 21):
            axis = np.linspace(-5.0, 5.0, points)
            xg, pg = np.meshgrid(axis, axis, indexing="ij")
            two_r2.append((2.0 * (xg**2 + pg**2)).ravel())
        x = np.unique(np.concatenate([*two_r2, [0.0, 1e3]]))
        for m in range(40):
            for n in range(m + 1):
                expected = scipy.special.genlaguerre(n, m - n)(x)
                assert np.array_equal(homodyne._genlaguerre(n, m - n, x), expected), (m, n)

    def test_binomial_product_form(self):
        # scipy.special.binom takes the product form only while the reduced k
        # = min(n, m - n) is below 20 and a beta-function form beyond, so the
        # bits agree for m < 40 only; past that the product form stays
        # within 1e-15 of the exact integer
        for m in range(40):
            for n in range(m + 1):
                assert homodyne._binom(m, n) == scipy.special.binom(m, n), (m, n)
        for m in range(40, 80):
            for n in range(m + 1):
                exact = math.comb(m, n)
                assert abs(homodyne._binom(m, n) - exact) <= 1e-15 * exact, (m, n)

    @pytest.mark.parametrize("d_f", [3, 4, 6, 8])
    def test_wigner_equals_scipy_loop(self, d_f):
        rng = np.random.default_rng(30 + d_f)
        rho = qstate.random_density_hs(d_f, rng)
        axis = np.linspace(-5.0, 5.0, 101)
        assert np.array_equal(homodyne.wigner(rho, axis, axis).values,
                              _wigner_scipy_loop(rho, axis))

    @pytest.mark.parametrize("points, p_points", [(2, 2), (7, 7), (16, 16), (17, 17),
                                                  (201, 201), (5, 9)])
    def test_row_blocks_equal_whole_grid(self, points, p_points):
        # grids below, at and just past one block of x rows, and non-square
        rho = qstate.random_density_hs(6, np.random.default_rng(40 + points))
        x_axis = np.linspace(-5.0, 5.0, points)
        p_axis = np.linspace(-4.0, 4.5, p_points)
        grid = homodyne.wigner(rho, x_axis, p_axis)
        assert grid.values.shape == (points, p_points)
        assert np.array_equal(grid.values, _wigner_scipy_loop(rho, x_axis, p_axis))
