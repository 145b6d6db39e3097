"""Tests for quantum objects: bases, Bloch coordinates, Born probabilities,
random ensembles and square-root measurements."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from tomolin import homodyne, qstate

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGellmannBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        gammas = qstate.gellmann_basis(2)
        assert_allclose(gammas[0], SX / np.sqrt(2), atol=1e-15)
        assert_allclose(gammas[1], SY / np.sqrt(2), atol=1e-15)
        assert_allclose(gammas[2], SZ / np.sqrt(2), atol=1e-15)

    def test_qutrit_gram_matrix(self):
        gammas = qstate.gellmann_basis(3)
        gram = np.einsum("aij,bji->ab", gammas, gammas).real
        assert_allclose(gram, np.eye(8), atol=1e-14)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_count_tracelessness_hermiticity(self, d):
        gammas = qstate.gellmann_basis(d)
        assert gammas.shape == (d * d - 1, d, d)
        assert np.abs(np.trace(gammas, axis1=1, axis2=2)).max() < 1e-14
        dev = np.abs(gammas - np.conj(np.swapaxes(gammas, 1, 2))).max()
        assert dev < 1e-14
        gram = np.einsum("aij,bji->ab", gammas, gammas).real
        assert np.abs(gram - np.eye(d * d - 1)).max() < 1e-12

    def test_is_one_cached_read_only_stack(self):
        gammas = qstate.gellmann_basis(3)
        assert qstate.gellmann_basis(3) is gammas
        assert gammas.dtype == complex and not gammas.flags.writeable

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            qstate.gellmann_basis(1)


class TestBloch:
    def test_maximally_mixed_maps_to_zero(self):
        r = qstate.state_to_bloch(np.eye(3) / 3)
        assert np.abs(r).max() < 1e-15

    def test_ground_state_qubit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        r = qstate.state_to_bloch(rho)
        assert_allclose(r, [0.0, 0.0, 1.0 / np.sqrt(2)], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        rho = qstate.random_density_hs(d, rng)
        back = qstate.bloch_to_state(qstate.state_to_bloch(rho))
        assert np.abs(back - rho).max() < 1e-12

    def test_batched_round_trip(self):
        rng = np.random.default_rng(5)
        rhos = qstate.random_density_hs(3, rng, size=10)
        rs = qstate.state_to_bloch(rhos)
        assert rs.shape == (10, 8)
        assert np.abs(qstate.bloch_to_state(rs) - rhos).max() < 1e-12

    def test_pure_state_radius(self):
        rng = np.random.default_rng(6)
        kets = qstate.haar_random_pure(4, rng, size=50)
        rhos = np.einsum("mi,mj->mij", kets, kets.conj())
        norms = np.linalg.norm(qstate.state_to_bloch(rhos), axis=1)
        assert_allclose(norms, np.sqrt(3.0 / 4.0), atol=1e-9)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_state_to_bloch_refuses_non_square_input(self, shape):
        with pytest.raises(ValueError, match="square"):
            qstate.state_to_bloch(np.zeros(shape))

    @pytest.mark.parametrize("count", [4, 5, 7])
    def test_bloch_to_state_refuses_coordinate_count(self, count):
        # d is read from d**2 - 1 coordinates: 3, 8 and 15 are counts, 4, 5
        # and 7 are not
        with pytest.raises(ValueError, match="coordinates"):
            qstate.bloch_to_state(np.zeros(count))

    @pytest.mark.parametrize("size", [None, 1, 6])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_round_trip_reads_dimension_from_shape(self, d, size):
        rhos = qstate.random_density_hs(d, np.random.default_rng(50 + d), size=size)
        back = qstate.bloch_to_state(qstate.state_to_bloch(rhos))
        assert back.shape == rhos.shape
        assert np.abs(back - rhos).max() < 1e-12


def einsum_bloch(x, gammas):
    return np.einsum("nij,...ji->...n", gammas, x).real


def einsum_amatrix(x, gammas):
    return np.einsum("mij,nji->mn", x, gammas).real


def assert_same_bits(got, ref):
    """Equal shapes, strides and bit patterns, so also equal signs of zero."""
    assert got.shape == ref.shape and got.strides == ref.strides
    bits = [np.ascontiguousarray(a).view(np.uint64) for a in (got, ref)]
    assert np.array_equal(*bits)


def wide_range_matrices(rng, shape, d):
    """Non-Hermitian complex matrices with entries scaled from 1e-3 to 1e3."""
    full = (*shape, d, d)
    x = rng.standard_normal(full) + 1j * rng.standard_normal(full)
    return x * 10.0 ** rng.uniform(-3.0, 3.0, full)


class TestGellmannTraces:
    """The traces over the nonzero Gell-Mann entries give einsum's bits in a
    contiguous array; for d >= 3 a diagonal matrix has three or more terms,
    so the order in which they are summed shows.  The Hilbert-Schmidt
    sampler gives the bits of its complex-sum, complex-quotient form."""

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (500,), (3, 5)])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_state_to_bloch_matches_einsum(self, d, shape):
        rng = np.random.default_rng(100 * d + len(shape))
        gammas = qstate.gellmann_basis(d)
        x = wide_range_matrices(rng, shape, d)
        assert_same_bits(qstate.state_to_bloch(x),
                         np.ascontiguousarray(einsum_bloch(x, gammas)))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_state_to_bloch_real_input(self, d):
        rng = np.random.default_rng(200 + d)
        gammas = qstate.gellmann_basis(d)
        for x in (rng.standard_normal((d, d)), rng.standard_normal((7, d, d)), np.eye(d) / d):
            assert_same_bits(qstate.state_to_bloch(x),
                             np.ascontiguousarray(einsum_bloch(x, gammas)))

    @pytest.mark.parametrize("count", [1, 7, 500])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_povm_to_affine_matches_einsum(self, d, count):
        rng = np.random.default_rng(300 * d + count)
        gammas = qstate.gellmann_basis(d)
        x = wide_range_matrices(rng, (count,), d)
        ref = einsum_amatrix(x, gammas)
        assert_same_bits(qstate._gellmann_traces(x, d), np.ascontiguousarray(ref))
        # the A block of the contiguous D = [b | A] has D's strides, not einsum's
        assert_same_bits(qstate.povm_to_affine(x)[:, 1:].copy(), ref.copy())

    @pytest.mark.parametrize("size", [None, 1, 7, 500])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_density_hs_matches_complex_sum(self, d, size):
        # the Ginibre matrix as a complex sum, and a complex quotient
        rng = np.random.default_rng(400 + d)
        shape = (1 if size is None else size, d, d)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = g @ np.conj(np.swapaxes(g, 1, 2))
        w /= np.trace(w, axis1=1, axis2=2).real[:, None, None]
        ref = w[0] if size is None else w
        assert_same_bits(qstate.random_density_hs(d, np.random.default_rng(400 + d), size=size), ref)


class TestDetectorModel:
    def test_computational_basis_offsets(self):
        povm = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        det = qstate.povm_to_affine(povm)
        assert_allclose(det[:, 0], [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_sum_rules(self, d):
        rng = np.random.default_rng(d + 10)
        povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=2 * d))
        det = qstate.povm_to_affine(povm)
        # completeness forces sum(b) = 1 and zero column sums of A
        assert det[:, 0].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(det[:, 1:].sum(axis=0)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_affine_matches_born(self, d):
        rng = np.random.default_rng(d + 20)
        for _ in range(25):
            povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=d + 3))
            det = qstate.povm_to_affine(povm)
            rho = qstate.random_density_hs(d, rng)
            r = qstate.state_to_bloch(rho)
            assert np.abs(qstate.affine_response(det, r) - qstate.born_probabilities(rho, povm)).max() < 1e-12

    def test_augmented_layout(self):
        # D = [b | A], one contiguous array: the offsets trace(E_j)/d, then
        # the coordinates trace(E_j G_k) on sigma_x, sigma_y, sigma_z / sqrt(2)
        povm = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        det = qstate.povm_to_affine(povm)
        assert det.shape == (2, 4) and det.flags.c_contiguous
        s = 1.0 / np.sqrt(2.0)
        assert_allclose(det, [[0.5, 0.0, 0.0, s], [0.5, 0.0, 0.0, -s]], atol=1e-15)


def strided(x):
    """The values of x in the real view of a complex buffer, a stride of 16
    bytes: numpy multiplies it unblocked, or by a strided BLAS dot."""
    out = np.zeros(np.shape(x), dtype=complex).real
    out[:] = x
    return out


def strided_response(effects, r):
    """The response as b + A @ r with A the strided Gell-Mann traces, the
    unblocked numpy product summed from zero."""
    d = effects.shape[1]
    a = strided(qstate._gellmann_traces(effects, d))
    assert a.strides[1] == 16  # not unit-stride, so not a BLAS product
    return np.trace(effects, axis1=1, axis2=2).real / d + a @ r


class TestAffineResponse:
    """affine_response(D, r) has the bits of b + A @ r for a strided A and
    a strided r, for square-root-measurement and homodyne effects; a single
    row is a BLAS dot, whose bits depend on r's stride too."""

    @pytest.mark.parametrize("kind", ["srm", "homodyne"])
    @pytest.mark.parametrize("m", [1, "d", 16, 130])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_strided_product(self, d, m, kind):
        count = d if m == "d" else m
        rng = np.random.default_rng([d, count, kind == "srm"])
        if kind == "srm":
            # the first count effects of a measurement with >= d outcomes
            kets = qstate.haar_random_pure(d, rng, size=max(count, d))
            effects = qstate.square_root_measurement(kets)[:count]
        else:
            effects = homodyne.homodyne_measurement(count, 0.8, rng, d)
        det = qstate.povm_to_affine(effects)
        states = [*qstate.random_density_hs(d, rng, size=4), np.eye(d) / d,
                  oracles.random_projector(d, rng)]
        for r in strided(qstate.state_to_bloch(np.array(states))):
            assert_same_bits(qstate.affine_response(det, r), strided_response(effects, r))

    def test_sum_starts_from_zero(self):
        # every product is -0.0: summed from zero they give 0.0, and
        # b = -0.0 plus 0.0 is 0.0
        det = np.array([[-0.0, -1.0, -1.0, -1.0]] * 2)
        a = np.zeros((2, 3), dtype=complex).real
        a[:] = -1.0
        ref = np.array([-0.0, -0.0]) + a @ np.zeros(3)
        assert not np.any(np.signbit(ref))
        assert_same_bits(qstate.affine_response(det, np.zeros(3)), ref)

    def test_coordinate_count(self):
        with pytest.raises(ValueError, match="coordinates"):
            qstate.affine_response(np.zeros((3, 4)), np.zeros(4))


class TestBornProbabilities:
    def test_maximally_mixed(self):
        rng = np.random.default_rng(31)
        povm = qstate.square_root_measurement(qstate.haar_random_pure(3, rng, size=5))
        p = qstate.born_probabilities(np.eye(3) / 3, povm)
        expected = np.trace(povm, axis1=1, axis2=2).real / 3
        assert_allclose(p, expected, atol=1e-14)

    def test_projective_ground_state(self):
        povm = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        assert_allclose(qstate.born_probabilities(np.diag([1.0, 0.0]).astype(complex), povm), [1.0, 0.0], atol=1e-15)

    def test_normalised_and_nonnegative(self):
        rng = np.random.default_rng(32)
        for d in (2, 4):
            povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=2 * d))
            p = qstate.born_probabilities(qstate.random_density_hs(d, rng), povm)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.min() > -1e-10


class TestRandomEnsembles:
    def test_haar_unit_norm(self):
        rng = np.random.default_rng(41)
        kets = qstate.haar_random_pure(5, rng, size=100)
        assert_allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-12)

    def test_haar_one_dimensional(self):
        rng = np.random.default_rng(42)
        v = qstate.haar_random_pure(1, rng)
        assert v.shape == (1,)
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_haar_overlap_uniformity(self):
        # for d=2 the overlap |<0|phi>|^2 is uniform on [0,1]: mean 1/2
        rng = np.random.default_rng(43)
        kets = qstate.haar_random_pure(2, rng, size=10_000)
        overlap = np.abs(kets[:, 0]) ** 2
        three_sigma = 3.0 / np.sqrt(12.0 * 10_000)
        assert abs(overlap.mean() - 0.5) < three_sigma

    def test_hs_density_invariants(self):
        rng = np.random.default_rng(44)
        rhos = qstate.random_density_hs(3, rng, size=50)
        assert_allclose(np.trace(rhos, axis1=1, axis2=2).real, 1.0, atol=1e-12)
        for rho in rhos:
            assert np.linalg.eigvalsh(rho)[0] > -1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_hs_density_scalar_case(self):
        rng = np.random.default_rng(45)
        assert_allclose(qstate.random_density_hs(1, rng), [[1.0]], atol=1e-15)

    def test_hs_mean_purity_against_quadrature_oracle(self):
        # for d=2 the squared-radius density is prop. to (2x-1)^2 on [0,1];
        # integrate purity x^2 + (1-x)^2 against it numerically
        x = np.linspace(0.0, 1.0, 20_001)
        weight = (2 * x - 1) ** 2
        purity = x**2 + (1 - x) ** 2
        oracle = np.trapezoid(weight * purity, x) / np.trapezoid(weight, x)
        rng = np.random.default_rng(46)
        rhos = qstate.random_density_hs(2, rng, size=10_000)
        sample = np.einsum("bij,bji->b", rhos, rhos).real
        three_sigma = 3.0 * sample.std() / np.sqrt(sample.size)
        assert abs(sample.mean() - oracle) < three_sigma
        assert oracle == pytest.approx(0.8, abs=1e-6)


class TestSquareRootMeasurement:
    def test_orthonormal_states_give_projectors(self):
        kets = np.eye(3, dtype=complex)
        povm = qstate.square_root_measurement(kets)
        for j in range(3):
            assert_allclose(povm[j], np.outer(kets[j], kets[j].conj()), atol=1e-12)

    @pytest.mark.parametrize("d,m", [(2, 2), (2, 5), (3, 4), (4, 12), (3, 9)])
    def test_completeness(self, d, m):
        rng = np.random.default_rng(100 * d + m)
        povm = qstate.square_root_measurement(qstate.haar_random_pure(d, rng, size=m))
        # Hermitian and positive semidefinite elements that sum to one
        assert np.abs(povm - np.conj(np.swapaxes(povm, 1, 2))).max() <= 1e-10
        assert np.linalg.eigvalsh(povm).min() >= -1e-10
        assert np.abs(povm.sum(axis=0) - np.eye(d)).max() < 1e-9

    def test_returns_the_effect_stack(self):
        kets = qstate.haar_random_pure(3, np.random.default_rng(48), size=5)
        effects = qstate.square_root_measurement(kets)
        assert type(effects) is np.ndarray
        assert effects.shape == (5, 3, 3) and effects.dtype == complex

    def test_two_state_case_against_closed_form(self):
        # states |0> and |+>; G = [[3/2, 1/2], [1/2, 1/2]], and for a SPD
        # 2x2 matrix sqrt(G) = (G + sqrt(det) I) / sqrt(tr + 2 sqrt(det))
        kets = np.array([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]], dtype=complex)
        gram = np.array([[1.5, 0.5], [0.5, 0.5]])
        sqrt_det = np.sqrt(np.linalg.det(gram))
        sqrt_g = (gram + sqrt_det * np.eye(2)) / np.sqrt(np.trace(gram) + 2 * sqrt_det)
        g_inv_half = np.linalg.inv(sqrt_g)
        expected = np.array([
            g_inv_half @ np.outer(k, k.conj()) @ g_inv_half for k in kets
        ])
        povm = qstate.square_root_measurement(kets)
        assert np.abs(povm - expected).max() < 1e-10

    def test_rank_deficient_gram_rejected(self):
        kets = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(qstate.RankDeficientGramError):
            qstate.square_root_measurement(kets)

    def test_too_few_states_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            qstate.square_root_measurement(np.array([[1.0, 0.0]], dtype=complex))
