"""Finite-dimensional quantum objects in Gell-Mann coordinates: Bloch
vectors, detector matrices, Born-rule probabilities, random states and
square-root measurements; d comes from an input's shape or an integer."""

from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np

__all__ = [
    "RankDeficientGramError",
    "gellmann_basis",
    "state_to_bloch",
    "bloch_to_state",
    "povm_to_affine",
    "affine_response",
    "born_probabilities",
    "haar_random_pure",
    "random_density_hs",
    "random_blochs",
    "square_root_measurement",
]

GRAM_EIG_FLOOR = 1e-12  # smallest Gram eigenvalue, relative to the largest


class RankDeficientGramError(ValueError):
    """The Gram operator of the input states is numerically rank deficient."""


@lru_cache(maxsize=None)
def gellmann_basis(d: int) -> np.ndarray:
    """The read-only (d**2 - 1, d, d) stack of the generalised Gell-Mann
    matrices of dimension d: symmetric and antisymmetric pair matrices
    followed by the diagonal family, normalised to trace(G_i G_j) = delta_ij.

    For d = 2 this is (sigma_x, sigma_y, sigma_z) / sqrt(2).
    """
    if d < 2:
        raise ValueError(f"basis needs dimension >= 2, got {d}")
    mats = []
    for j, k in combinations(range(d), 2):
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
        mats.append(m)
    for j, k in combinations(range(d), 2):
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1j / np.sqrt(2.0)
        m[k, j] = 1j / np.sqrt(2.0)
        mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    out = np.array(mats)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _gellmann_trace_plan(d: int) -> tuple:
    """Index plan for Re trace(G_n X) over the nonzero entries of the stack.

    Every entry of a Gell-Mann matrix is zero, purely real or purely
    imaginary, so Re(G_ij X_ji) is a real coefficient times the real or the
    imaginary part of X_ji.  Term t of every matrix is its t-th nonzero
    entry in ascending (i, j) order, the order in which einsum accumulates.
    The pair matrices have 2 terms and the l-th diagonal one l + 1, so the
    matrices that have a term t form a trailing block of the stack.

    Returns (index, coeff, steps): index points into X flattened as
    interleaved (real, imag) floats and coeff holds the real coefficients,
    one entry per term; step t is (start, cols), the first matrix with a
    term t and the slice of the terms that holds it.
    """
    terms = []
    for g in gellmann_basis(d):
        rows, cols = np.nonzero(g)  # row-major, so ascending (i, j)
        entries = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            if g[i, j].imag == 0.0:
                entries.append((2 * (j * d + i), g[i, j].real))
            else:
                assert g[i, j].real == 0.0
                entries.append((2 * (j * d + i) + 1, -g[i, j].imag))
        terms.append(entries)
    flat, steps = [], []
    for t in range(max(map(len, terms))):
        start = next(n for n, entries in enumerate(terms) if len(entries) > t)
        assert all(len(entries) > t for entries in terms[start:])
        steps.append((start, slice(len(flat), len(flat) + len(terms) - start)))
        flat.extend(entries[t] for entries in terms[start:])
    index, coeff = (np.array(v) for v in zip(*flat))
    index.setflags(write=False)
    coeff.setflags(write=False)
    return index, coeff, tuple(steps)


def _gellmann_traces(x, d: int) -> np.ndarray:
    """Re trace(G_n X) for every basis matrix G_n and every X of a stack
    (..., d, d), a contiguous (..., d**2 - 1) float array with the bits of
    einsum("nij,...ji->...n", gammas, x).real.

    Only the nonzero entries of the G_n enter, added to a zero start in
    einsum's order.  The same terms make up
    einsum("mij,nji->mn", x, gammas), in the same order for the diagonal
    matrices, and a pair matrix's two terms sum alike in either order."""
    index, coeff, steps = _gellmann_trace_plan(d)
    x = np.ascontiguousarray(x, dtype=complex)
    terms = x.reshape(*x.shape[:-2], d * d).view(np.float64)[..., index]
    terms *= coeff
    out = np.zeros(x.shape[:-2] + (d * d - 1,))
    for start, cols in steps:
        out[..., start:] += terms[..., cols]
    return out


def state_to_bloch(rho) -> np.ndarray:
    """Coordinates r_i = trace(rho G_i) of a (d, d) state or a (..., d, d)
    stack of them."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected square operators, got shape {rho.shape}")
    return _gellmann_traces(rho, rho.shape[-1])


def bloch_to_state(r) -> np.ndarray:
    """Reconstruct rho = 1/d + sum_i r_i G_i from its d**2 - 1 Bloch
    coordinates, or a stack of states from (..., d**2 - 1) coordinates.

    The identity coefficient 1/d is forced by unit trace together with the
    tracelessness of the basis.
    """
    r = np.asarray(r, dtype=float)
    count = r.shape[-1] if r.ndim else 0
    d = isqrt(count + 1)
    if d < 2 or d * d != count + 1:
        raise ValueError(f"expected d**2 - 1 coordinates for a dimension d >= 2, got {count}")
    return np.eye(d) / d + np.einsum("...n,nij->...ij", r, gellmann_basis(d))


def _element_stack(effects) -> tuple[np.ndarray, int]:
    arr = np.asarray(effects)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a stack of square operators, got shape {arr.shape}")
    return arr, arr.shape[1]


def povm_to_affine(effects) -> np.ndarray:
    """The detector matrix D = [b | A] of an (m, d, d) stack of Hermitian
    effects: the contiguous (m, d**2) array of b_j = trace(E_j)/d and
    a_jk = trace(E_j G_k), whose product D (1, r) is the response to the
    Bloch vector r.  Completeness is not required, only linearity.
    """
    elements, d = _element_stack(effects)
    b = np.trace(elements, axis1=1, axis2=2).real / d
    return np.hstack([b[:, None], _gellmann_traces(elements, d)])


def affine_response(detector, r) -> np.ndarray:
    """The response b + A r of the detector matrix D = [b | A] to the Bloch
    vector r: each row is b_j plus its products a_jk r_k added from zero in
    ascending k, so its bits depend on neither the strides of D and r nor
    the number of rows.  A BLAS product of D's columns may differ in the
    last bit."""
    detector = np.asarray(detector, dtype=float)
    r = np.asarray(r, dtype=float)
    if r.shape != (detector.shape[1] - 1,):
        raise ValueError(f"expected {detector.shape[1] - 1} Bloch coordinates, got shape {r.shape}")
    terms = detector[:, 1:] * r
    terms[:, 0] += 0.0  # the sum starts from zero, which turns -0.0 into 0.0
    return detector[:, 0] + np.add.accumulate(terms, axis=1)[:, -1]


def born_probabilities(rho, effects) -> np.ndarray:
    """Outcome probabilities p_j = trace(rho E_j) of an (m, d, d) effect
    stack."""
    elements, d = _element_stack(effects)
    rho = np.asarray(rho)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} != measurement dim {d}")
    return np.einsum("mij,ji->m", elements, rho).real


def haar_random_pure(d: int, rng, size: int | None = None) -> np.ndarray:
    """Haar-distributed pure state vector(s): normalised complex Gaussians."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    shape = (d,) if size is None else (size, d)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_density_hs(d: int, rng, size: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt random mixed state(s) G G* / trace(G G*), G Ginibre."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    shape = (1 if size is None else size, d, d)
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    w = g @ np.conj(np.swapaxes(g, 1, 2))
    # numpy divides a complex by c + 0j as a product with 1 / c, so this
    # is the division with the same bits, without a complex quotient
    w *= 1.0 / np.trace(w, axis1=1, axis2=2).real[:, None, None]
    return w[0] if size is None else w


def random_blochs(d: int, count: int, rng) -> np.ndarray:
    """Bloch columns (d**2 - 1, count) of Hilbert-Schmidt random states of
    dimension d."""
    return state_to_bloch(random_density_hs(d, rng, size=count)).T


def square_root_measurement(states) -> np.ndarray:
    """The (m, d, d) stack of POVM elements E_j = G^{-1/2} |phi_j><phi_j| G^{-1/2}
    with G = sum_j |phi_j><phi_j|.

    Raises RankDeficientGramError when G has an eigenvalue below
    GRAM_EIG_FLOOR * lambda_max; the caller should redraw the states.
    """
    kets = np.asarray(states, dtype=complex)
    if kets.ndim != 2:
        raise ValueError(f"expected (m, d) array of state vectors, got shape {kets.shape}")
    m, d = kets.shape
    if m < d:
        raise ValueError(f"need at least d={d} states for a full-rank Gram operator, got {m}")
    gram = np.einsum("mi,mj->ij", kets, kets.conj())
    w, u = np.linalg.eigh(gram)
    if w[0] < GRAM_EIG_FLOOR * w[-1]:
        raise RankDeficientGramError(
            f"Gram operator rank deficient: eigenvalue ratio {w[0] / w[-1]:.2e}"
        )
    g_inv_half = (u / np.sqrt(w)) @ u.conj().T
    rotated = kets @ g_inv_half.T  # G^{-1/2} |phi_j>
    return rotated[:, :, None] * rotated.conj()[:, None, :]
