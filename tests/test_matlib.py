"""Tests for the matrix core: SVD, pseudoinverse, reverse-order law and the
product pseudoinverse decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tomolin import matlib


def random_matrix(rng, rows, cols, complex_=False, rank=None):
    x = rng.standard_normal((rows, cols))
    if complex_:
        x = x + 1j * rng.standard_normal((rows, cols))
    if rank is not None and rank < min(rows, cols):
        left = rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols))
        if complex_:
            left = left + 1j * rng.standard_normal((rows, rank))
            right = right + 1j * rng.standard_normal((rank, cols))
        x = left @ right
    return x


class TestSvd:
    def test_identity(self):
        f = matlib.svd(np.eye(3))
        assert_allclose(f.singular_values, [1.0, 1.0, 1.0])
        assert_allclose(np.abs(f.u), np.eye(3), atol=1e-14)
        assert_allclose(np.abs(f.v), np.eye(3), atol=1e-14)

    def test_already_diagonal(self):
        f = matlib.svd(np.diag([3.0, 0.0]))
        assert_allclose(f.singular_values, [3.0, 0.0], atol=1e-15)
        assert f.numerical_rank == 1

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        x = random_matrix(rng, 7, 4)
        f = matlib.svd(x)
        reconstructed = (f.u * f.singular_values) @ f.v.conj().T
        rel = np.linalg.norm(reconstructed - x) / np.linalg.norm(x)
        assert rel < 1e-10

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(8)
        x = random_matrix(rng, 5, 9, complex_=True)
        f = matlib.svd(x)
        assert_allclose(f.u.conj().T @ f.u, np.eye(5), atol=1e-12)
        assert_allclose(f.v.conj().T @ f.v, np.eye(5), atol=1e-12)
        assert np.all(np.diff(f.singular_values) <= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            matlib.svd(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            matlib.svd(np.empty((0, 3)))

    def test_failed_decomposition_raises_svd_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(matlib.SvdError,
                           match=r"for 3x2 matrix \(condition estimate 2\.000e\+00\)"):
            matlib.svd(x)


class TestPinv:
    def test_identity(self):
        assert_allclose(matlib.pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_column_vector(self):
        # v+ = v^T / ||v||^2
        v = np.array([[3.0], [4.0]])
        assert_allclose(matlib.pinv(v), [[0.12, 0.16]], atol=1e-15)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)])
    def test_penrose_on_random(self, shape):
        rng = np.random.default_rng(11)
        x = random_matrix(rng, *shape)
        assert matlib.penrose_check(x, matlib.pinv(x)).max() < 1e-9

    def test_rank_deficient(self):
        rng = np.random.default_rng(12)
        x = random_matrix(rng, 8, 6, rank=3)
        xp = matlib.pinv(x)
        assert matlib.penrose_check(x, xp).max() < 1e-9
        assert matlib.svd(xp).numerical_rank == 3

    def test_agrees_with_ridge_limit(self):
        # (X*X + delta I)^-1 X* at delta = 1e-12 for well-conditioned X
        rng = np.random.default_rng(13)
        x = random_matrix(rng, 6, 4) + 3.0 * np.eye(6, 4)
        delta = 1e-12
        ridge = np.linalg.solve(x.T @ x + delta * np.eye(4), x.T)
        assert np.linalg.norm(matlib.pinv(x) - ridge) < 1e-6

    def test_custom_rtol_truncates(self):
        x = np.diag([1.0, 1e-8])
        assert matlib.svd(matlib.pinv(x, rtol=1e-4)).numerical_rank == 1

    @pytest.mark.parametrize("rows, cols, complex_, rank, rtol", [
        (7, 4, False, None, None),
        (5, 9, True, None, None),
        (8, 6, False, 3, None),
        (6, 8, True, 2, None),
        (1, 6, False, None, None),
        (6, 5, False, None, 0.3),
        (4, 7, True, None, 0.5),
    ])
    def test_factorization_pinv_has_the_formula_bits(self, rows, cols, complex_, rank, rtol):
        # the truncated inverse as a thin numpy SVD, the cutoff rtol *
        # sigma_max with rtol defaulting to max(rows, cols) * eps, and the
        # kept singular values inverted
        x = random_matrix(np.random.default_rng(rows * cols), rows, cols, complex_, rank)
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        cutoff = (max(x.shape) * np.finfo(float).eps if rtol is None else rtol) * s[0]
        inv = np.zeros_like(s)
        inv[s > cutoff] = 1.0 / s[s > cutoff]
        formula = (vh.conj().T * inv) @ u.conj().T
        assert np.array_equal(matlib.svd(x, rtol=rtol).pinv(), formula)
        assert np.array_equal(matlib.pinv(x, rtol=rtol), formula)
        if rtol is not None:
            assert np.count_nonzero(inv) < min(rows, cols)


class TestPenroseCheck:
    def test_identity_pair_zero(self):
        res = matlib.penrose_check(np.eye(3), np.eye(3))
        assert res.max() == 0.0

    def test_transpose_is_not_pinv(self):
        rng = np.random.default_rng(21)
        x = random_matrix(rng, 4, 6)
        res = matlib.penrose_check(x, x.T)
        assert res.max() > 1e-3

    def test_residuals_in_condition_order(self):
        # X = I, Xp = [[1, 1], [0, 1]]: the four residuals all differ but
        # c3 and c4
        res = matlib.penrose_check(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert res.shape == (4,)
        assert_allclose(res, np.sqrt([1 / 2, 1 / 3, 2 / 3, 2 / 3]), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            matlib.penrose_check(np.eye(3), np.eye(4))


class TestReverseOrder:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(31)
        q = np.linalg.qr(rng.standard_normal((8, 5)))[0]
        y = rng.standard_normal((5, 7))
        assert matlib.reverse_order_residual(q, y) < 1e-9

    def test_conjugate_transpose_pair(self):
        rng = np.random.default_rng(32)
        x = random_matrix(rng, 4, 7, complex_=True)
        assert matlib.reverse_order_residual(x, x.conj().T) <= 1e-9

    def test_full_rank_pair(self):
        rng = np.random.default_rng(33)
        x = random_matrix(rng, 8, 4)  # full column rank
        y = random_matrix(rng, 4, 9)  # full row rank
        assert matlib.reverse_order_residual(x, y) <= 1e-9

    def test_generic_product_fails(self):
        rng = np.random.default_rng(34)
        x = random_matrix(rng, 4, 6)
        y = random_matrix(rng, 6, 4)
        assert matlib.reverse_order_residual(x, y) > 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matlib.reverse_order_residual(np.eye(3), np.eye(4))


def gw_norm(x, y, h, middle):
    return np.linalg.norm(matlib.pinv(y) @ (h + middle) @ matlib.pinv(x))


class TestGwDecompose:
    def test_identity_pair(self):
        h, g = matlib.gw_decompose(np.eye(4), np.eye(4))
        assert_allclose(h, np.eye(4), atol=1e-12)
        assert_allclose(g, np.zeros((4, 4)), atol=1e-12)

    def test_full_rank_pair_reduces_to_reverse_order(self):
        rng = np.random.default_rng(41)
        x = random_matrix(rng, 9, 5)   # full column rank
        y = random_matrix(rng, 5, 8)   # full row rank
        h, g = matlib.gw_decompose(x, y)
        assert_allclose(h, np.eye(5), atol=1e-10)
        assert_allclose(g, np.zeros((5, 5)), atol=1e-10)
        assert_allclose(matlib.pinv(x @ y), matlib.pinv(y) @ matlib.pinv(x), atol=1e-10)

    @pytest.mark.parametrize("shapes,ranks", [
        (((5, 8), (8, 6)), (None, None)),
        (((7, 4), (4, 9)), (None, None)),
        (((6, 8), (8, 5)), (3, 4)),
    ])
    def test_reconstruction_and_invariants(self, shapes, ranks):
        rng = np.random.default_rng(42)
        x = random_matrix(rng, *shapes[0], rank=ranks[0])
        y = random_matrix(rng, *shapes[1], rank=ranks[1])
        h, g = matlib.gw_decompose(x, y)
        lhs = matlib.pinv(x @ y)
        rhs = matlib.pinv(y) @ (h + g) @ matlib.pinv(x)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-9
        # defining constraint and orthogonality
        q = y @ matlib.pinv(y)
        p = matlib.pinv(x) @ x
        assert np.linalg.norm(q @ g @ p - g) < 1e-9
        assert abs(np.trace(g.conj().T @ h)) < 1e-9
        # h is built from the two projectors
        assert_allclose(h, matlib.pinv(p @ q), atol=1e-9)
        # the subspace identities used to recover g in closed form
        assert np.linalg.norm(q @ h - h) < 1e-9
        assert np.linalg.norm(h @ p - h) < 1e-9

    def test_minimality_against_random_admissible(self):
        rng = np.random.default_rng(43)
        x = random_matrix(rng, 5, 8)
        y = random_matrix(rng, 8, 6)
        h, g = matlib.gw_decompose(x, y)
        base = gw_norm(x, y, h, g)
        q = y @ matlib.pinv(y)
        p = matlib.pinv(x) @ x
        for _ in range(100):
            z = matlib.admissible_perturbation(x, y, rng)
            assert np.linalg.norm(q @ z @ p - z) < 1e-9
            assert np.linalg.norm(x @ z @ y) < 1e-9
            assert gw_norm(x, y, h, z) >= base - 1e-10

    def test_h_rank_matches_subspace_intersection(self):
        # rank(h) = dim( R(Y) intersect [R(X*) + N(Y*)] ), by rank arithmetic
        rng = np.random.default_rng(44)
        x = random_matrix(rng, 6, 8, rank=4)
        y = random_matrix(rng, 8, 5, rank=3)
        h, _ = matlib.gw_decompose(x, y)
        b_y = np.linalg.qr(y)[0][:, :3]                        # basis of R(Y)
        b_xs = np.linalg.qr(x.conj().T)[0][:, :4]              # basis of R(X*)
        null_ys = np.linalg.svd(y.conj().T)[2].conj().T[:, 3:]  # basis of N(Y*)
        b_sum = np.linalg.qr(np.hstack([b_xs, null_ys]))[0]
        dim_sum = np.linalg.matrix_rank(np.hstack([b_xs, null_ys]))
        b_sum = b_sum[:, :dim_sum]
        inter_dim = 3 + dim_sum - np.linalg.matrix_rank(np.hstack([b_y, b_sum]))
        assert matlib.svd(h).numerical_rank == inter_dim

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matlib.gw_decompose(np.eye(3), np.eye(4))


class TestPinvProperties:
    """The standard pseudoinverse identities, as residual checks."""

    @pytest.mark.parametrize("seed,shape,complex_", [
        (51, (6, 4), False), (52, (4, 6), True), (53, (5, 5), False),
    ])
    def test_identities(self, seed, shape, complex_):
        rng = np.random.default_rng(seed)
        x = random_matrix(rng, *shape, complex_=complex_)
        xp = matlib.pinv(x)
        xs = x.conj().T
        assert_allclose(matlib.pinv(xs @ x) @ xs, xp, atol=1e-10)
        assert_allclose(xs @ matlib.pinv(x @ xs), xp, atol=1e-10)
        assert_allclose(matlib.pinv(xp), x, atol=1e-10)
        assert_allclose(matlib.pinv(xs), xp.conj().T, atol=1e-10)
        assert_allclose(matlib.pinv(xs @ x), xp @ matlib.pinv(xs), atol=1e-10)

    def test_range_and_null_space(self):
        # R(X+) = R(X+X) = R(X*) and N(X+) = N(XX+) = N(X*), via projectors
        rng = np.random.default_rng(54)
        x = random_matrix(rng, 7, 5, complex_=True, rank=3)
        xp = matlib.pinv(x)
        xs = x.conj().T
        range_proj_xp = xp @ matlib.pinv(xp)
        range_proj_xs = xs @ matlib.pinv(xs)
        assert_allclose(range_proj_xp, range_proj_xs, atol=1e-10)
        assert_allclose(range_proj_xp, xp @ x, atol=1e-10)
        null_proj_xp = np.eye(7) - matlib.pinv(xp) @ xp
        null_proj_xs = np.eye(7) - matlib.pinv(xs) @ xs
        assert_allclose(null_proj_xp, null_proj_xs, atol=1e-10)
        assert_allclose(null_proj_xp, np.eye(7) - x @ xp, atol=1e-10)


class TestHsNorm:
    def test_identity(self):
        assert matlib.hs_norm(np.eye(5)) == pytest.approx(np.sqrt(5))

    def test_zero(self):
        assert matlib.hs_norm(np.zeros((3, 4))) == 0.0

    def test_pythagorean(self):
        assert matlib.hs_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_matches_entry_norm(self):
        rng = np.random.default_rng(61)
        x = random_matrix(rng, 4, 7, complex_=True)
        assert matlib.hs_norm(x) == pytest.approx(np.sqrt(np.sum(np.abs(x) ** 2)))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    complex_=st.booleans(),
    deficient=st.booleans(),
)
def test_pinv_satisfies_penrose_for_arbitrary_shapes(rows, cols, seed, complex_, deficient):
    rng = np.random.default_rng(seed)
    rank = max(1, min(rows, cols) // 2) if deficient else None
    x = random_matrix(rng, rows, cols, complex_=complex_, rank=rank)
    assert matlib.penrose_check(x, matlib.pinv(x)).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(2, 8), n=st.integers(2, 8), p=st.integers(2, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_gw_reconstruction_for_arbitrary_shapes(m, n, p, seed):
    rng = np.random.default_rng(seed)
    x = random_matrix(rng, m, n)
    y = random_matrix(rng, n, p)
    h, g = matlib.gw_decompose(x, y)
    lhs = matlib.pinv(x @ y)
    rhs = matlib.pinv(y) @ (h + g) @ matlib.pinv(x)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(lhs), 1.0)
