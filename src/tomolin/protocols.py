"""The two linear-inversion tomography protocols for unknown detectors.

Standard detector tomography calibrates first (A = F R+) and inverts the
calibrated response; data-pattern tomography fits the signal data with the
probe patterns and mixes the probes with the same coefficients.  Both are
expressed here as a single inversion matrix, a plain (n + 1, m) array
applied to the data vector, in affine-augmented coordinates (1, r) so the
constant detector offset is carried implicitly.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import matlib

__all__ = [
    "ProbeSet",
    "PatternSet",
    "EstimationFailureError",
    "add_noise",
    "collect_patterns",
    "standard_inversion_matrix",
    "pattern_inversion_matrix",
    "estimate_batch",
    "trial_data",
    "batch_mse",
    "mse_theoretical",
]

LEAD_FLOOR = 1e-6  # leading augmented coordinate below this is degenerate
MAX_FAILURE_FRACTION = 0.01  # share of degenerate estimates a batch may exclude


class EstimationFailureError(ArithmeticError):
    """Too many degenerate estimates in a trial batch, or a non-finite MSE."""


@dataclass(frozen=True)
class ProbeSet:
    """Probe states arranged columnwise in augmented form; row 0 is all ones.

    The pseudoinverse R+ is computed on first use and kept, so a probe set
    shared by several inversions decomposes R once."""

    r_matrix: np.ndarray  # (n + 1, M)

    def __post_init__(self):
        r = self.r_matrix
        if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 1:
            raise ValueError(f"probe matrix must be (n+1, M), got {r.shape}")
        if not np.allclose(r[0], 1.0):
            raise ValueError("first row of an augmented probe matrix must be ones")

    @classmethod
    def from_blochs(cls, blochs) -> "ProbeSet":
        """Stack Bloch column vectors (n, M) under a row of ones."""
        b = np.asarray(blochs, dtype=float)
        return cls(np.vstack([np.ones(b.shape[1]), b]))

    def prefix(self, count: int) -> "ProbeSet":
        """The first count probes; self at the full count, so its R+ is kept."""
        return self if count == self.r_matrix.shape[1] else ProbeSet(self.r_matrix[:, :count])

    @functools.cached_property
    def pinv(self) -> np.ndarray:
        """R+, read-only and computed once."""
        rp = matlib.pinv(self.r_matrix)
        rp.setflags(write=False)
        return rp


@dataclass(frozen=True)
class PatternSet:
    """Measured responses of the probes, one column per probe."""

    f_matrix: np.ndarray  # (m, M)

    def __post_init__(self):
        if self.f_matrix.ndim != 2:
            raise ValueError(f"pattern matrix must be 2-D, got {self.f_matrix.shape}")


def add_noise(p, ratio: float, rng) -> np.ndarray:
    """Perturb a probability vector, or each column of a matrix, by i.i.d.
    Gaussian entries with sigma = ratio * rms(column); ratio must be >= 0.

    p is only read, so it may be a read-only or broadcast view.  The result
    is one new C-ordered array: the squares, then the noise, are written
    into it and p is added last, the draws and products of p + noise.
    """
    if ratio < 0:
        raise ValueError(f"noise ratio must be >= 0, got {ratio}")
    arr = np.asarray(p, dtype=float)
    if ratio == 0.0:
        return arr.copy()
    out = np.empty(arr.shape)
    rms = np.sqrt(np.mean(np.square(arr, out=out), axis=0, keepdims=True))
    rng.standard_normal(out=out)
    out *= ratio * rms
    out += arr
    return out


def collect_patterns(detector: np.ndarray, probes: ProbeSet, ratio: float, rng) -> PatternSet:
    """The patterns F = D R of the probes through the (m, n + 1) detector
    matrix D, perturbed by add_noise at the given ratio.  Raises
    FloatingPointError when they overflow to non-finite entries."""
    if detector.shape[1] != probes.r_matrix.shape[0]:
        raise ValueError(
            f"detector expects {detector.shape[1]} augmented parameters, "
            f"probes carry {probes.r_matrix.shape[0]}"
        )
    f = add_noise(detector @ probes.r_matrix, ratio, rng)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError(f"the {f.shape[0]} x {f.shape[1]} patterns overflowed "
                                 "to non-finite entries")
    return PatternSet(f)


def standard_inversion_matrix(patterns: PatternSet, probes: ProbeSet) -> np.ndarray:
    """Calibrate the detector as F R+ and invert it: A_s = (F R+)+.  A
    calibration that overflows to non-finite entries raises FloatingPointError."""
    _check_counts(patterns, probes)
    calibration = patterns.f_matrix @ probes.pinv
    if not np.all(np.isfinite(calibration)):
        raise FloatingPointError("the calibration F R+ overflowed to non-finite entries")
    return matlib.pinv(calibration)


def pattern_inversion_matrix(patterns: PatternSet, probes: ProbeSet) -> np.ndarray:
    """Fit data with patterns and mix the probes: A_p = R F+."""
    _check_counts(patterns, probes)
    return probes.r_matrix @ matlib.pinv(patterns.f_matrix)


def _check_counts(patterns: PatternSet, probes: ProbeSet) -> None:
    if patterns.f_matrix.shape[1] != probes.r_matrix.shape[1]:
        raise ValueError(f"pattern count {patterns.f_matrix.shape[1]} "
                         f"!= probe count {probes.r_matrix.shape[1]}")


def estimate_batch(inv: np.ndarray, fmat) -> tuple[np.ndarray, np.ndarray]:
    """Linear estimates r = (inv @ f)[1:] / (inv @ f)[0] of the data
    columns f by the (n + 1, m) inversion matrix inv, with no physicality
    projection; returns (estimates, valid_mask), where a column is invalid
    when its leading coordinate, the estimate of the constant 1, falls
    below LEAD_FLOOR.  The estimates are divided in place and returned as
    a view of the product inv @ f, so no second batch is allocated.
    """
    raw = inv @ np.asarray(fmat, dtype=float)
    lead = raw[0, :]
    valid = np.abs(lead) >= LEAD_FLOOR
    safe = np.where(valid, lead, 1.0)
    estimates = raw[1:, :]
    estimates /= safe
    return estimates, valid


def mse_theoretical(inv: np.ndarray, epsilon: float, m: int) -> float:
    """Noise-averaged error epsilon^2 ||A||^2 / m for sphere-uniform data
    noise of strength epsilon, using the de-augmented inversion matrix
    A = inv[1:] (the constant row dropped).

    The ratio noise of add_noise, as the CLI adds it to a response p, has
    the same expected error with epsilon = ratio * ||p||_2: its m entries
    have variance (ratio * ||p||_2)^2 / m, as a sphere draw's do."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return epsilon**2 * matlib.hs_norm(inv[1:]) ** 2 / m


def trial_data(detector: np.ndarray, true_blochs, ratio: float, rng) -> np.ndarray:
    """Responses (m, batch) of the (m, n + 1) detector matrix D to the true
    states given as Bloch columns (n, batch), perturbed by add_noise at the
    given ratio."""
    true_blochs = np.asarray(true_blochs, dtype=float)
    augmented = np.vstack([np.ones(true_blochs.shape[1]), true_blochs])
    return add_noise(detector @ augmented, ratio, rng)


def batch_mse(inv: np.ndarray, data, true_blochs) -> float:
    """Mean squared Bloch error of the estimates of the data columns against
    the true Bloch columns.

    Degenerate estimates are excluded from the mean while they stay within
    MAX_FAILURE_FRACTION of the batch, otherwise the batch fails hard, as
    it does when the mean is not finite.
    """
    estimates, valid = estimate_batch(inv, data)
    batch = valid.size
    failures = int(batch - valid.sum())
    if failures > MAX_FAILURE_FRACTION * batch:
        raise EstimationFailureError(
            f"{failures}/{batch} estimates degenerate, above the "
            f"{MAX_FAILURE_FRACTION:.0%} exclusion budget"
        )
    # in place: the squared errors overwrite the estimates
    estimates -= true_blochs
    np.square(estimates, out=estimates)
    errors = np.sum(estimates, axis=0)
    mse = float(np.mean(errors[valid]))
    if not np.isfinite(mse):
        raise EstimationFailureError(f"mean squared error {mse} over {batch - failures} "
                                     "estimates is not finite")
    return mse
