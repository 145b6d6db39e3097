"""Finite-dimensional quantum objects: operator bases, Bloch coordinates,
Born-rule probabilities, random states and square-root measurements."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "OperatorBasis",
    "Povm",
    "DetectorModel",
    "RankDeficientGramError",
    "gellmann_basis",
    "state_to_bloch",
    "bloch_to_state",
    "povm_to_affine",
    "born_probabilities",
    "haar_random_pure",
    "random_density_hs",
    "random_density_pure",
    "random_blochs",
    "square_root_measurement",
]


class RankDeficientGramError(ValueError):
    """The Gram operator of the input states is numerically rank deficient."""


@dataclass(frozen=True)
class OperatorBasis:
    """Traceless orthonormal Hermitian basis: trace(G_i G_j) = delta_ij."""

    dim: int
    gammas: np.ndarray  # (dim**2 - 1, dim, dim), complex

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1


@lru_cache(maxsize=None)
def _gellmann_stack(d: int) -> np.ndarray:
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
    for g in _gellmann_stack(d):
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
    (..., d, d), with the bits and strides of
    einsum("nij,...ji->...n", gammas, x).real.

    Only the nonzero entries of the G_n enter, added to a zero start in
    einsum's order.  The result is the real view of a complex buffer, as
    einsum's .real is; a contiguous array would send a later matrix product
    down another BLAS path.  The same terms make up
    einsum("mij,nji->mn", x, gammas), in the same order for the diagonal
    matrices, and a pair matrix's two terms sum alike in either order."""
    index, coeff, steps = _gellmann_trace_plan(d)
    x = np.ascontiguousarray(x, dtype=complex)
    terms = x.reshape(*x.shape[:-2], d * d).view(np.float64)[..., index]
    terms *= coeff
    buffer = np.zeros(x.shape[:-2] + (d * d - 1,), dtype=complex)
    out = buffer.real
    for start, cols in steps:
        out[..., start:] += terms[..., cols]
    return out


def gellmann_basis(d: int) -> OperatorBasis:
    """Generalised Gell-Mann basis of dimension d: symmetric and
    antisymmetric pair matrices followed by the diagonal family,
    normalised to trace(G_i G_j) = delta_ij.

    For d = 2 this is (sigma_x, sigma_y, sigma_z) / sqrt(2).
    """
    if d < 2:
        raise ValueError(f"basis needs dimension >= 2, got {d}")
    return OperatorBasis(dim=d, gammas=_gellmann_stack(d))


def state_to_bloch(rho, basis: OperatorBasis) -> np.ndarray:
    """Coordinates r_i = trace(rho G_i); accepts a single state or a stack."""
    rho = np.asarray(rho)
    if rho.shape[-1] != basis.dim or rho.shape[-2] != basis.dim:
        raise ValueError(f"state dim {rho.shape[-1]} != basis dim {basis.dim}")
    return _gellmann_traces(rho, basis.dim)


def bloch_to_state(r, basis: OperatorBasis) -> np.ndarray:
    """Reconstruct rho = 1/d + sum_i r_i G_i from Bloch coordinates.

    The identity coefficient 1/d is forced by unit trace together with the
    tracelessness of the basis.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] != basis.size:
        raise ValueError(f"expected {basis.size} coordinates, got {r.shape[-1]}")
    eye = np.eye(basis.dim) / basis.dim
    return eye + np.einsum("...n,nij->...ij", r, basis.gammas)


@dataclass(frozen=True)
class Povm:
    """Measurement with PSD elements summing to the identity."""

    dim: int
    elements: np.ndarray  # (m, dim, dim)

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    def validate(self, atol_psd: float = 1e-10, atol_sum: float = 1e-9) -> None:
        herm = np.abs(self.elements - np.conj(np.swapaxes(self.elements, 1, 2))).max()
        if herm > 1e-10:
            raise ValueError(f"POVM elements not Hermitian (deviation {herm:.2e})")
        for el in self.elements:
            lo = np.linalg.eigvalsh(el)[0]
            if lo < -atol_psd:
                raise ValueError(f"POVM element not PSD (min eigenvalue {lo:.2e})")
        total = self.elements.sum(axis=0)
        dev = np.abs(total - np.eye(self.dim)).max()
        if dev > atol_sum:
            raise ValueError(f"POVM elements do not sum to identity (deviation {dev:.2e})")


@dataclass(frozen=True)
class DetectorModel:
    """Affine response p_j = b_j + sum_k a_jk r_k of a measurement device."""

    offset: np.ndarray   # (m,)
    amatrix: np.ndarray  # (m, n)

    @property
    def n_outcomes(self) -> int:
        return self.offset.shape[0]

    def augmented(self) -> np.ndarray:
        """Forward matrix [b | A] acting on augmented states (1, r)."""
        return np.hstack([self.offset[:, None], self.amatrix])

    def probabilities(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.offset + self.amatrix @ r


def _element_stack(povm) -> tuple[np.ndarray, int]:
    if isinstance(povm, Povm):
        return np.asarray(povm.elements), povm.dim
    arr = np.asarray(povm)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a stack of square operators, got shape {arr.shape}")
    return arr, arr.shape[1]


def povm_to_affine(povm, basis: OperatorBasis) -> DetectorModel:
    """Affine decomposition b_j = trace(E_j)/d, a_jk = trace(E_j G_k).

    Accepts a Povm or any stack of Hermitian effects; completeness is not
    required, only linearity of the response in the state.
    """
    elements, d = _element_stack(povm)
    if d != basis.dim:
        raise ValueError(f"measurement dim {d} != basis dim {basis.dim}")
    b = np.trace(elements, axis1=1, axis2=2).real / d
    a = _gellmann_traces(elements, d)
    return DetectorModel(offset=b, amatrix=a)


def born_probabilities(rho, povm) -> np.ndarray:
    """Outcome probabilities p_j = trace(rho E_j)."""
    elements, d = _element_stack(povm)
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


def random_density_pure(d: int, rng, size: int | None = None) -> np.ndarray:
    """Projector(s) onto Haar-random pure states."""
    v = haar_random_pure(d, rng, size=size)
    return np.einsum("...i,...j->...ij", v, v.conj())


def random_blochs(basis: OperatorBasis, count: int, rng, ensemble: str = "hs") -> np.ndarray:
    """Bloch columns (n, count) of random states: Hilbert-Schmidt mixed
    states for ensemble "hs", Haar-random pure states for "pure"."""
    if ensemble == "hs":
        rhos = random_density_hs(basis.dim, rng, size=count)
    elif ensemble == "pure":
        rhos = random_density_pure(basis.dim, rng, size=count)
    else:
        raise ValueError(f"unknown state ensemble {ensemble!r}")
    return state_to_bloch(rhos, basis).T


def square_root_measurement(states, eig_floor: float = 1e-12) -> Povm:
    """POVM E_j = G^{-1/2} |phi_j><phi_j| G^{-1/2} with G = sum_j |phi_j><phi_j|.

    Raises RankDeficientGramError when G has an eigenvalue below
    eig_floor * lambda_max; the caller should redraw the states.
    """
    kets = np.asarray(states, dtype=complex)
    if kets.ndim != 2:
        raise ValueError(f"expected (m, d) array of state vectors, got shape {kets.shape}")
    m, d = kets.shape
    if m < d:
        raise ValueError(f"need at least d={d} states for a full-rank Gram operator, got {m}")
    gram = np.einsum("mi,mj->ij", kets, kets.conj())
    w, u = np.linalg.eigh(gram)
    if w[0] < eig_floor * w[-1]:
        raise RankDeficientGramError(
            f"Gram operator rank deficient: eigenvalue ratio {w[0] / w[-1]:.2e}"
        )
    g_inv_half = (u / np.sqrt(w)) @ u.conj().T
    rotated = kets @ g_inv_half.T  # G^{-1/2} |phi_j>
    elements = rotated[:, :, None] * rotated.conj()[:, None, :]
    return Povm(dim=d, elements=elements)
