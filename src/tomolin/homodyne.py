"""Continuous-variable layer in a truncated Fock basis: coherent probes,
inefficient homodyne quadrature functionals and Wigner functions.

Conventions: [x, p] = i, vacuum variance 1/2, and x_theta is the rotated
quadrature x cos(theta) + p sin(theta), so <n|x_theta> carries the phase
e^{i n theta} and a coherent state has quadrature mean
sqrt(2) |alpha| cos(arg(alpha) - theta).  Wigner functions normalise to
unit integral over the (x, p) plane.
"""

from functools import lru_cache
from math import comb, factorial

import numpy as np

__all__ = [
    "coherent_state_fock",
    "true_signal",
    "true_state",
    "loss_channel_adjoint",
    "hermite_functions",
    "homodyne_measurement",
    "wigner",
]

AMPLITUDE_GUARD = 2.0  # truncation-safety bound on |alpha|
# the bin width dx of a quadrature outcome; under ratio noise it scales D,
# F and the data alike, so it moves no estimate beyond rounding
BIN_WIDTH = 0.1
# the quadrature window: a quadrature point is drawn from [-X_MAX, X_MAX]
X_MAX = 3.0


def coherent_state_fock(alpha, d_f: int) -> np.ndarray:
    """Coherent state amplitudes c_n ~ alpha^n / sqrt(n!), renormalised
    within the truncation.  alpha may be an array; the result then has
    shape alpha.shape + (d_f,).  Rejects |alpha| > 2 where the truncated
    tail would no longer be negligible."""
    alpha = np.asarray(alpha)
    largest = np.abs(alpha).max(initial=0.0)
    if largest > AMPLITUDE_GUARD:
        raise ValueError(f"|alpha| = {largest:.3f} beyond truncation guard {AMPLITUDE_GUARD}")
    n = np.arange(d_f)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    c = alpha[..., None] ** n * np.exp(-0.5 * log_fact)
    # squared norm as re.re + im.im dot products, the sum np.linalg.norm
    # forms for one vector; a reduction over an axis would round differently
    re, im = c.real[..., None, :], c.imag[..., None, :]
    sqnorm = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    return c / np.sqrt(sqnorm)


def true_signal(d_f: int) -> np.ndarray:
    """The benchmark signal: amplitudes (sqrt(0.1), sqrt(0.2), sqrt(0.3))
    on the first three Fock states, renormalised to unit norm."""
    if d_f < 3:
        raise ValueError("signal needs at least three Fock states")
    amps = np.zeros(d_f, dtype=complex)
    amps[:3] = np.sqrt([0.1, 0.2, 0.3])
    return amps / np.linalg.norm(amps)


def true_state(d_f: int) -> np.ndarray:
    """The density matrix of the benchmark signal."""
    signal = true_signal(d_f)
    return np.outer(signal, signal.conj())


@lru_cache(maxsize=None)
def _loss_coefficients(d_f: int, eta: float) -> np.ndarray:
    # c[k, j] = sqrt(C(j + k, k) eta^j (1 - eta)^k), the entry (j, j + k) of
    # the k-th Kraus operator A_k of the loss channel; zero where j + k >= d_f
    c = np.zeros((d_f, d_f))
    for k in range(d_f):
        for n in range(k, d_f):
            c[k, n - k] = np.sqrt(comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
    c.setflags(write=False)
    return c


def loss_channel_adjoint(op, eta: float) -> np.ndarray:
    """Heisenberg picture of the photon-loss (binomial beamsplitter)
    channel of efficiency eta in [0, 1]: sum_k A_k* op A_k, so that
    trace(loss(rho) op) = trace(rho adjoint(op)).  op may be a
    (..., d, d) stack.

    A_k has its only nonzero entries c_k on the k-th superdiagonal, so
    A_k* op A_k is op shifted down and right by k and scaled by c_k on both
    sides; the terms are added in ascending k."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    op = np.asarray(op, dtype=complex)
    d_f = op.shape[-1]
    coefficients = _loss_coefficients(d_f, float(eta))
    out = np.zeros(op.shape, dtype=complex)
    for k in range(d_f):
        c_k = coefficients[k, :d_f - k]
        out[..., k:, k:] += (c_k[:, None] * op[..., :d_f - k, :d_f - k]) * c_k
    return out


def hermite_functions(x, d_f: int) -> np.ndarray:
    """Harmonic-oscillator position amplitudes psi_n(x) = <n|x> for
    n < d_f, by the stable two-term recursion.  x may be an array; the
    result then has shape x.shape + (d_f,)."""
    x = np.asarray(x, dtype=float)
    psi = np.zeros(x.shape + (d_f,))
    psi[..., 0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if d_f > 1:
        psi[..., 1] = np.sqrt(2.0) * x * psi[..., 0]
    for n in range(2, d_f):
        psi[..., n] = (np.sqrt(2.0 / n) * x * psi[..., n - 1]
                       - np.sqrt((n - 1) / n) * psi[..., n - 2])
    return psi


def _quadrature_functionals(theta, x, d_f: int) -> np.ndarray:
    # |x_theta><x_theta| for arrays of points, shape theta.shape + (d_f, d_f)
    theta = np.asarray(theta, dtype=float)
    amp = hermite_functions(x, d_f) * np.exp(1j * np.arange(d_f) * theta[..., None])
    return amp[..., :, None] * amp.conj()[..., None, :]


def homodyne_measurement(m: int, eta: float, rng, d_f: int) -> np.ndarray:
    """Draw m quadrature points (theta_j, x_j) with theta ~ U[0, pi),
    x ~ U[-X_MAX, X_MAX] and build the binned functionals
    p_j = trace(loss(rho, eta) |x><x|) dx of an inefficient homodyne
    detector, with dx = BIN_WIDTH.

    Returns the (m, d_f, d_f) effects: E_j already includes the loss
    channel (Heisenberg picture) and the bin width, so probabilities are
    plain traces trace(rho E_j), as qstate.born_probabilities(rho, effects)
    computes them.  The effects need not be complete; linearity is all the
    protocols use.
    """
    if m < 1:
        raise ValueError("need at least one quadrature point")
    # row j holds (theta_j, x_j), in the order of alternating scalar draws
    points = rng.uniform([0.0, -X_MAX], [np.pi, X_MAX], size=(m, 2))
    functionals = _quadrature_functionals(points[:, 0], points[:, 1], d_f)
    return BIN_WIDTH * loss_channel_adjoint(functionals, eta)


def _binom(n: int, k: int) -> float:
    """Binomial coefficient C(n, k) for integral n >= 0 by the product form
    of scipy.special.binom: k reduced by symmetry, then num and den built
    up factor by factor and renormalised once num passes 1e50.  scipy takes
    this form only while the reduced k is below 20."""
    if n > 0 and k > n / 2:
        k = n - k
    num = den = 1.0
    for i in range(1, int(k) + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _genlaguerre(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Generalised Laguerre polynomial L_n^alpha(x) by the recursion of
    scipy.special.eval_genlaguerre for integer n, with the same
    floating-point operations in the same order.  It has the bits of
    scipy.special.genlaguerre(n, alpha)(x) wherever scipy's binom takes the
    product form, which holds for n + alpha < 40."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in map(float, range(1, n)):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
    return _binom(n + alpha, n) * p


def _wigner_kernel(m: int, n: int, gauss: np.ndarray, z: np.ndarray,
                   two_r2: np.ndarray) -> np.ndarray:
    # contribution of |m><n| for m >= n, in the Laguerre form; the grid
    # enters as gauss = exp(-r^2) / pi, z = x - ip and two_r2 = 2 r^2
    pref = gauss * (-1.0) ** n
    pref = pref * np.sqrt(2.0 ** (m - n) * factorial(n) / factorial(m))
    return pref * z ** (m - n) * _genlaguerre(n, m - n, two_r2)


_WIGNER_ROWS = 16  # x rows per block of a Wigner grid


def _wigner_block(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    # the Wigner function on the full (x, p) grid of the given axes
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    r2 = xg**2 + pg**2
    grid = (np.exp(-r2) / np.pi, xg - 1j * pg, 2.0 * r2)
    # only the grid terms live through the Fock loop
    del xg, pg, r2
    d = rho.shape[0]
    values = np.zeros(grid[0].shape, dtype=complex)
    for m in range(d):
        values += rho[m, m].real * _wigner_kernel(m, m, *grid)
        for n in range(m):
            # off-diagonal pairs contribute twice the real part
            values += 2.0 * np.real(rho[m, n] * _wigner_kernel(m, n, *grid))
    return values.real


def wigner(rho, axis) -> np.ndarray:
    """Wigner function of a Fock-basis density matrix: the
    (len(axis), len(axis)) array of its values on the grid axis x axis,
    x along the rows.

    Uses the associated-Laguerre kernel; W(0,0) equals the scaled parity
    sum (1/pi) sum_n (-1)^n rho_nn and the grid integral is 1 for states
    well contained in the grid.  The grid is evaluated _WIGNER_ROWS x rows
    at a time: every step is elementwise, so a block has the bits of the
    whole grid, and only one block of temporaries is alive at a time.
    """
    rho = np.asarray(rho, dtype=complex)
    axis = np.asarray(axis, dtype=float)
    values = np.empty((axis.size, axis.size))
    for start in range(0, axis.size, _WIGNER_ROWS):
        rows = slice(start, start + _WIGNER_ROWS)
        values[rows] = _wigner_block(rho, axis[rows], axis)
    return values
