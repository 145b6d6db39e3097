"""Reference forms and diagnostics that only the tests use.

kraus_operators and loss_channel are the Kraus stack and the Schrodinger
picture of the photon-loss channel, the reference for
homodyne.loss_channel_adjoint; QuadratureOutcome and
quadrature_functional build one quadrature functional at a time, the
reference for the batched functionals of homodyne.homodyne_measurement.
value_at reads a square Wigner grid at its point nearest to (x, p),
limiting_case_diagnostics does the norm bookkeeping of the two protocols
for redundant probe sets, keyed_cells lists the cells of a run,
numerical_rank counts the singular values above matlib.svd's cutoff,
random_setup draws one frozen experiment for the protocol tests, and
pinv_cutoff sets the cutoff of every pseudoinverse a run or a selftest
takes.
"""

import unittest.mock
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from tomolin import bench, homodyne, matlib, protocols, qstate


@lru_cache(maxsize=None)
def _kraus_stack(d_f: int, eta: float) -> np.ndarray:
    ks = np.zeros((d_f, d_f, d_f))
    for k in range(d_f):
        for n in range(k, d_f):
            binom = factorial(n) / (factorial(k) * factorial(n - k))
            ks[k, n - k, n] = np.sqrt(binom * eta ** (n - k) * (1.0 - eta) ** k)
    ks.setflags(write=False)
    return ks


def kraus_operators(d_f: int, eta: float) -> np.ndarray:
    """Kraus operators of the photon-loss (binomial beamsplitter) channel."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    return _kraus_stack(d_f, float(eta))


def loss_channel(rho, eta: float) -> np.ndarray:
    """Apply the loss channel sum_k A_k rho A_k*; trace preserving and
    completely positive by construction."""
    rho = np.asarray(rho, dtype=complex)
    ks = kraus_operators(rho.shape[0], eta)
    return np.einsum("kij,jl,kml->im", ks, rho, ks.conj())


@dataclass(frozen=True)
class QuadratureOutcome:
    """A single homodyne point: phase in [0, pi) and quadrature value."""

    theta: float
    x: float
    x_max: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.theta < np.pi:
            raise ValueError(f"theta must lie in [0, pi), got {self.theta}")
        if abs(self.x) > self.x_max:
            raise ValueError(f"|x| = {abs(self.x)} exceeds x_max = {self.x_max}")


def quadrature_functional(outcome: QuadratureOutcome, d_f: int) -> np.ndarray:
    """Rank-one operator |x_theta><x_theta| in the truncated Fock basis."""
    return homodyne._quadrature_functionals(outcome.theta, outcome.x, d_f)


def value_at(axis, values, x: float, p: float) -> float:
    """The value of a Wigner grid over axis x axis at its point nearest to
    (x, p)."""
    i = int(np.argmin(np.abs(axis - x)))
    j = int(np.argmin(np.abs(axis - p)))
    return float(values[i, j])


def keyed_cells(cfg: bench.ExperimentConfig) -> list:
    """(m, ensemble, cell) of every cell of cfg's grid in (m, ensemble)
    order, with a run's bits."""
    return [(m, e, cell) for m in cfg.m_values for e in range(cfg.ensembles)
            for cell in bench.cells(cfg, m, e)]


# one frozen experiment: detector, probes, their patterns, data-noise ratio
Setup = namedtuple("Setup", "detector probes patterns noise_data")


def random_setup(d, m, M, rng, pattern_ratio=0.03, data_ratio=0.06) -> Setup:
    """A random square-root measurement with m outcomes in dimension d, M
    Hilbert-Schmidt probes and their patterns, drawn from rng by the draw
    of a sweep, bench.srm_setup."""
    return Setup(*bench.srm_setup(d, m, M, pattern_ratio, rng), data_ratio)


def random_projector(d, rng) -> np.ndarray:
    """The (d, d) projector onto a Haar-random pure state."""
    ket = qstate.haar_random_pure(d, rng)
    return np.einsum("i,j->ij", ket, ket.conj())


def numerical_rank(x) -> int:
    """The count of singular values of x above the cutoff of matlib.svd."""
    _, s, _, tol = matlib.svd(x)
    return int(np.count_nonzero(s > tol))


def _truncated_inverse(u, s, v, tol) -> np.ndarray:
    """The pseudoinverse of u diag(s) v*, with matlib.pinv's arithmetic."""
    inv = np.zeros_like(s)
    inv[s > tol] = 1.0 / s[s > tol]
    return (v * inv) @ u.conj().T


def _pinv_at(x, cutoff: float | None) -> np.ndarray:
    # matlib.svd's factors truncated at cutoff * s[0] (None: at svd's tol)
    u, s, v, tol = matlib.svd(x)
    return _truncated_inverse(u, s, v, tol if cutoff is None else cutoff * s[0])


def pinv_cutoff(cutoff: float | None):
    """A patch of matlib.pinv, entered with a with block, under which it
    truncates at cutoff * sigma_max (None: at matlib.svd's cutoff).
    matlib owns the cutoff, so a run or a selftest takes a faulty one only
    this way; the CLI runs in-process, and a pool that forks inherits it."""
    return unittest.mock.patch.object(matlib, "pinv", lambda x: _pinv_at(x, cutoff))


@dataclass(frozen=True)
class LimitingCaseDiagnostics:
    """Norm bookkeeping behind the regime analysis of the two protocols."""

    hs_norm_standard: float
    hs_norm_pattern: float
    h_norm: float
    h_rank: int
    u11_norm: float
    u11_bound: float


def limiting_case_diagnostics(patterns: protocols.PatternSet,
                              probes: protocols.ProbeSet) -> LimitingCaseDiagnostics:
    """Diagnostics for redundant probe sets, M > min(m, n + 1).

    Returns the protocol norms, the norm and rank of the skew projector
    h = (F+ F R+ R)+ that appears in the standard inversion, and the norm of
    the n_aug x m corner block of V_R* V_F.  Checks ||h|| >= sqrt(rank h)
    (every singular value of a projector on its support is >= 1) and
    ||U11|| <= sqrt(min block dimension).

    R and F are factorised once each; R+, F+, A_s = (F R+)+, A_p = R F+
    and U11 all come from those two factorisations.
    """
    protocols._check_counts(patterns, probes)
    f = patterns.f_matrix
    r = probes.r_matrix
    n_aug = r.shape[0]
    m = f.shape[0]
    big_m = r.shape[1]
    if big_m <= min(m, n_aug):
        raise ValueError(
            f"diagnostics need a redundant probe set, M > min(m, n+1); "
            f"got M={big_m}, m={m}, n+1={n_aug}"
        )
    fr = matlib.svd(r)
    ff = matlib.svd(f)
    rp = _truncated_inverse(*fr)
    fp = _truncated_inverse(*ff)
    a_s = matlib.pinv(f @ rp)
    a_p = r @ fp
    h = matlib.pinv((fp @ f) @ (rp @ r))
    h_norm = matlib.hs_norm(h)
    h_rank = numerical_rank(h)
    if h_norm < np.sqrt(h_rank) - 1e-9:
        raise AssertionError(f"projector norm {h_norm} below sqrt(rank) {np.sqrt(h_rank)}")
    u11 = fr[2].conj().T @ ff[2]  # V_R* V_F
    u11_norm = matlib.hs_norm(u11)
    u11_bound = np.sqrt(min(u11.shape))
    if u11_norm > u11_bound + 1e-9:
        raise AssertionError(f"corner block norm {u11_norm} above bound {u11_bound}")
    return LimitingCaseDiagnostics(
        hs_norm_standard=matlib.hs_norm(a_s),
        hs_norm_pattern=matlib.hs_norm(a_p),
        h_norm=h_norm,
        h_rank=h_rank,
        u11_norm=u11_norm,
        u11_bound=float(u11_bound),
    )
