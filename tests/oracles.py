"""Reference forms of the homodyne layer that only the tests use.

loss_channel is the Schrodinger picture of the photon-loss channel, the
reference for homodyne.loss_channel_adjoint; QuadratureOutcome and
quadrature_functional build one quadrature functional at a time, the
reference for the batched functionals of homodyne.homodyne_measurement.
"""

from dataclasses import dataclass

import numpy as np

from tomolin import homodyne


def loss_channel(rho, eta: float) -> np.ndarray:
    """Apply the loss channel sum_k A_k rho A_k*; trace preserving and
    completely positive by construction."""
    rho = np.asarray(rho, dtype=complex)
    ks = homodyne.kraus_operators(rho.shape[0], eta)
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
