"""Dense matrix core: SVD, Moore-Penrose pseudoinverse and the product
pseudoinverse decomposition (X Y)+ = Y+ (h + g) X+.

All operations are pure functions on real or complex 2-D numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdError",
    "SvdFactorization",
    "svd",
    "pinv",
    "penrose_check",
    "reverse_order_residual",
    "gw_decompose",
    "admissible_perturbation",
    "hs_norm",
]

_EPS = np.finfo(float).eps


class SvdError(np.linalg.LinAlgError):
    """SVD failed to converge; message carries shape and a condition estimate."""


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return x as a 2-D numpy array with finite entries."""
    a = np.asarray(x)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.number):
        raise ValueError(f"{name} must be numeric, got dtype {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _condition_estimate(a: np.ndarray) -> float:
    # QR based fallback; used only when the SVD itself is unavailable.
    try:
        r = np.linalg.qr(a if a.shape[0] >= a.shape[1] else a.conj().T, mode="r")
        diag = np.abs(np.diag(r))
        small = diag.min()
        return float(diag.max() / small) if small > 0 else np.inf
    except np.linalg.LinAlgError:
        return np.nan


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD x = u @ diag(s) @ v*, singular values nonincreasing."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    rank_tolerance: float

    @property
    def numerical_rank(self) -> int:
        return int(np.count_nonzero(self.singular_values > self.rank_tolerance))

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse: the singular values above
        rank_tolerance are inverted, the rest dropped."""
        s = self.singular_values
        inv = np.zeros_like(s)
        keep = s > self.rank_tolerance
        inv[keep] = 1.0 / s[keep]
        return (self.v * inv) @ self.u.conj().T


def svd(x, rtol: float | None = None) -> SvdFactorization:
    """Thin singular value decomposition of a real or complex matrix.

    rtol sets the relative cutoff below which singular values are treated
    as zero; defaults to max(rows, cols) * machine epsilon.
    """
    a = _as_matrix(x)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(
            f"SVD did not converge for {a.shape[0]}x{a.shape[1]} matrix "
            f"(condition estimate {_condition_estimate(a):.3e})"
        ) from exc
    if rtol is None:
        rtol = max(a.shape) * _EPS
    smax = s[0] if s.size else 0.0
    return SvdFactorization(u, s, vh.conj().T, rank_tolerance=float(rtol * smax))


def pinv(x, rtol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD truncation.

    Singular values above rtol * sigma_max are inverted, the rest dropped.
    """
    return svd(x, rtol=rtol).pinv()


def _rel(num: float, denom: float) -> float:
    return num / denom if denom > 0 else num


def penrose_check(x, xp) -> np.ndarray:
    """Relative residuals of the four conditions that characterise the
    pseudoinverse, in this order: c1 X Xp X = X, c2 Xp X Xp = Xp,
    c3 (X Xp)* = X Xp and c4 (Xp X)* = Xp X."""
    a = _as_matrix(x, "x")
    b = _as_matrix(xp, "xp")
    if b.shape != (a.shape[1], a.shape[0]):
        raise ValueError(f"xp shape {b.shape} incompatible with x shape {a.shape}")
    ab = a @ b
    ba = b @ a
    return np.array([
        _rel(np.linalg.norm(ab @ a - a), np.linalg.norm(a)),
        _rel(np.linalg.norm(ba @ b - b), np.linalg.norm(b)),
        _rel(np.linalg.norm(ab.conj().T - ab), max(np.linalg.norm(ab), 1.0)),
        _rel(np.linalg.norm(ba.conj().T - ba), max(np.linalg.norm(ba), 1.0)),
    ])


def reverse_order_residual(x, y, rtol: float | None = None) -> float:
    """Residual of the reverse-order law (X Y)+ = Y+ X+, relative to
    ||(X Y)+||.

    The law holds when X has orthonormal columns, Y has orthonormal rows,
    Y = X*, or X has full column rank and Y full row rank; it fails for
    generic rank-deficient products.
    """
    a = _as_matrix(x, "x")
    b = _as_matrix(y, "y")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    lhs = pinv(a @ b, rtol=rtol)
    rhs = pinv(b, rtol=rtol) @ pinv(a, rtol=rtol)
    return float(_rel(np.linalg.norm(lhs - rhs), np.linalg.norm(lhs)))


def gw_decompose(x, y, rtol: float | None = None) -> tuple:
    """Decompose the pseudoinverse of a product into projector and correction.

    Returns (h, g) with (X Y)+ = Y+ (h + g) X+: h = (X+ X Y Y+)+ is a skew
    projector and g = Y (X Y)+ X - h is the unique minimal-norm correction,
    which satisfies Y Y+ g X+ X = g and trace(g* h) = 0.
    """
    a = _as_matrix(x, "x")
    b = _as_matrix(y, "y")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    ap = pinv(a, rtol=rtol)
    bp = pinv(b, rtol=rtol)
    h = pinv((ap @ a) @ (b @ bp), rtol=rtol)
    g = b @ pinv(a @ b, rtol=rtol) @ a - h
    return h, g


def admissible_perturbation(x, y, rng, rtol: float | None = None) -> np.ndarray:
    """Draw a random z with Y Y+ z X+ X = z and X z Y = 0.

    These are the constraints under which g minimises ||Y+ (h + z) X+||.
    A Gaussian draw is projected with Y Y+ (.) X+ X and the component
    violating X z Y = 0 is removed through a least-squares correction.
    """
    a = _as_matrix(x, "x")
    b = _as_matrix(y, "y")
    q = b @ pinv(b, rtol=rtol)
    p = pinv(a, rtol=rtol) @ a
    w = rng.standard_normal((a.shape[1], a.shape[1]))
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        w = w + 1j * rng.standard_normal(w.shape)
    z = q @ w @ p
    aq = a @ q
    pb = p @ b
    correction = q @ (pinv(aq, rtol=rtol) @ (a @ z @ b) @ pinv(pb, rtol=rtol)) @ p
    return z - correction


def hs_norm(x) -> float:
    """Hilbert-Schmidt (Frobenius) norm, sqrt(trace(x* x))."""
    return float(np.linalg.norm(_as_matrix(x)))
