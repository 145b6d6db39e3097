"""The two linear-inversion tomography protocols for unknown detectors.

Standard detector tomography calibrates first (A = F R+) and inverts the
calibrated response; data-pattern tomography fits the signal data with the
probe patterns and mixes the probes with the same coefficients.  Both are
expressed here as a single inversion matrix, a plain (n + 1, m) array
applied to the data vector, in affine-augmented coordinates (1, r) so the
constant detector offset is carried implicitly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matlib, qstate

__all__ = [
    "NoiseSpec",
    "ProbeSet",
    "PatternSet",
    "LimitingCaseDiagnostics",
    "EstimationFailureError",
    "add_noise",
    "collect_patterns",
    "standard_inversion_matrix",
    "pattern_inversion_matrix",
    "estimate_batch",
    "trial_data",
    "batch_mse",
    "mse_theoretical",
    "limiting_case_diagnostics",
]

LEAD_FLOOR = 1e-6  # leading augmented coordinate below this is degenerate


class EstimationFailureError(ArithmeticError):
    """Too many degenerate estimates in a trial batch."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: 'fixed' draws uniformly on the sphere ||dp|| = value,
    'ratio' adds i.i.d. Gaussian entries with sigma = value * rms(p)."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("fixed", "ratio"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.value < 0:
            raise ValueError("noise value must be >= 0")


@dataclass(frozen=True)
class ProbeSet:
    """Probe states arranged columnwise in augmented form; row 0 is all ones.

    The pseudoinverse R+ is computed on first use for each rtol and kept,
    so a probe set shared by several inversions decomposes R once."""

    r_matrix: np.ndarray  # (n + 1, M)
    _pinvs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.r_matrix
        if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 1:
            raise ValueError(f"probe matrix must be (n+1, M), got {r.shape}")
        if not np.allclose(r[0], 1.0):
            raise ValueError("first row of an augmented probe matrix must be ones")

    @classmethod
    def from_blochs(cls, blochs) -> "ProbeSet":
        """Stack Bloch column vectors (n, M) under a row of ones."""
        b = np.atleast_2d(np.asarray(blochs, dtype=float))
        return cls(np.vstack([np.ones(b.shape[1]), b]))

    @property
    def n_probes(self) -> int:
        return self.r_matrix.shape[1]

    def prefix(self, count: int) -> "ProbeSet":
        return ProbeSet(self.r_matrix[:, :count])

    def pinv(self, rtol: float | None = None) -> np.ndarray:
        """R+, read-only and computed once per rtol."""
        if rtol not in self._pinvs:
            rp = matlib.pinv(self.r_matrix, rtol=rtol)
            rp.setflags(write=False)
            self._pinvs[rtol] = rp
        return self._pinvs[rtol]


@dataclass(frozen=True)
class PatternSet:
    """Measured responses of the probes, one column per probe."""

    f_matrix: np.ndarray  # (m, M)

    def __post_init__(self):
        if self.f_matrix.ndim != 2:
            raise ValueError(f"pattern matrix must be 2-D, got {self.f_matrix.shape}")
        if not np.all(np.isfinite(self.f_matrix)):
            raise ValueError("pattern matrix contains non-finite entries")

    @property
    def n_probes(self) -> int:
        return self.f_matrix.shape[1]

    def prefix(self, count: int) -> "PatternSet":
        return PatternSet(self.f_matrix[:, :count])


def add_noise(p, spec: NoiseSpec, rng) -> np.ndarray:
    """Perturb a probability vector, or each column of a matrix.

    fixed mode: p + dp with dp uniform on the sphere of radius spec.value.
    ratio mode: i.i.d. Gaussian per entry, sigma = spec.value * rms(column).

    p is only read, so it may be a read-only or broadcast view.  The result
    is one new C-ordered array: the squares, then the noise, are written
    into it and p is added last, the draws and products of p + noise.
    """
    arr = np.asarray(p, dtype=float)
    if spec.value == 0.0:
        return arr.copy()
    vec = arr.ndim == 1
    cols = arr[:, None] if vec else arr
    out = np.empty(cols.shape)
    if spec.mode == "fixed":
        rng.standard_normal(out=out)
        out *= spec.value / np.linalg.norm(out, axis=0, keepdims=True)
    else:
        rms = np.sqrt(np.mean(np.square(cols, out=out), axis=0, keepdims=True))
        rng.standard_normal(out=out)
        out *= spec.value * rms
    out += cols
    return out[:, 0] if vec else out


def collect_patterns(detector: qstate.DetectorModel, probes: ProbeSet,
                     spec: NoiseSpec, rng) -> PatternSet:
    """Measure every probe through the detector and perturb the responses."""
    fwd = detector.augmented()
    if fwd.shape[1] != probes.r_matrix.shape[0]:
        raise ValueError(
            f"detector expects {fwd.shape[1]} augmented parameters, "
            f"probes carry {probes.r_matrix.shape[0]}"
        )
    return PatternSet(add_noise(fwd @ probes.r_matrix, spec, rng))


def standard_inversion_matrix(patterns: PatternSet, probes: ProbeSet,
                              rtol: float | None = None) -> np.ndarray:
    """Calibrate the detector as F R+ and invert it: A_s = (F R+)+."""
    _check_counts(patterns, probes)
    return matlib.pinv(patterns.f_matrix @ probes.pinv(rtol), rtol=rtol)


def pattern_inversion_matrix(patterns: PatternSet, probes: ProbeSet,
                             rtol: float | None = None) -> np.ndarray:
    """Fit data with patterns and mix the probes: A_p = R F+."""
    _check_counts(patterns, probes)
    return probes.r_matrix @ matlib.pinv(patterns.f_matrix, rtol=rtol)


def _check_counts(patterns: PatternSet, probes: ProbeSet) -> None:
    if patterns.n_probes != probes.n_probes:
        raise ValueError(
            f"pattern count {patterns.n_probes} != probe count {probes.n_probes}"
        )


def estimate_batch(inv: np.ndarray, fmat) -> tuple[np.ndarray, np.ndarray]:
    """Linear estimates r = (inv @ f)[1:] / (inv @ f)[0] of the data
    columns f by the (n + 1, m) inversion matrix inv, with no physicality
    projection; returns (estimates, valid_mask), where a column is invalid
    when its leading coordinate, the estimate of the constant 1, falls
    below LEAD_FLOOR.
    """
    raw = inv @ np.asarray(fmat, dtype=float)
    lead = raw[0, :]
    valid = np.abs(lead) >= LEAD_FLOOR
    safe = np.where(valid, lead, 1.0)
    return raw[1:, :] / safe[None, :], valid


def mse_theoretical(inv: np.ndarray, epsilon: float, m: int) -> float:
    """Noise-averaged error epsilon^2 ||A||^2 / m for sphere-uniform data
    noise of strength epsilon, using the de-augmented inversion matrix
    A = inv[1:] (the constant row dropped)."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return epsilon**2 * matlib.hs_norm(inv[1:]) ** 2 / m


def trial_data(detector: qstate.DetectorModel, true_blochs, noise: NoiseSpec,
               rng) -> np.ndarray:
    """Noisy detector responses (m, batch) to the true states given as Bloch
    columns (n, batch)."""
    true_blochs = np.atleast_2d(np.asarray(true_blochs, dtype=float))
    augmented = np.vstack([np.ones(true_blochs.shape[1]), true_blochs])
    return add_noise(detector.augmented() @ augmented, noise, rng)


def batch_mse(inv: np.ndarray, data, true_blochs,
              max_failure_fraction: float = 0.01) -> float:
    """Mean squared Bloch error of the estimates of the data columns against
    the true Bloch columns.

    Degenerate estimates are excluded from the mean while they stay within
    max_failure_fraction of the batch, otherwise the batch fails hard.
    """
    estimates, valid = estimate_batch(inv, data)
    batch = valid.size
    failures = int(batch - valid.sum())
    if failures > max_failure_fraction * batch:
        raise EstimationFailureError(
            f"{failures}/{batch} estimates degenerate, above the "
            f"{max_failure_fraction:.0%} exclusion budget"
        )
    errors = np.sum((estimates - true_blochs) ** 2, axis=0)
    return float(np.mean(errors[valid]))


@dataclass(frozen=True)
class LimitingCaseDiagnostics:
    """Norm bookkeeping behind the regime analysis of the two protocols."""

    hs_norm_standard: float
    hs_norm_pattern: float
    h_norm: float
    h_rank: int
    u11_norm: float
    u11_bound: float


def limiting_case_diagnostics(patterns: PatternSet, probes: ProbeSet,
                              rtol: float | None = None) -> LimitingCaseDiagnostics:
    """Diagnostics for redundant probe sets, M > min(m, n + 1).

    Returns the protocol norms, the norm and rank of the skew projector
    h = (F+ F R+ R)+ that appears in the standard inversion, and the norm of
    the n_aug x m corner block of V_R* V_F.  Checks ||h|| >= sqrt(rank h)
    (every singular value of a projector on its support is >= 1) and
    ||U11|| <= sqrt(min block dimension).

    R and F are factorised once each; R+, F+, A_s = (F R+)+, A_p = R F+
    and U11 all come from those two factorisations.
    """
    _check_counts(patterns, probes)
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
    fr = matlib.svd(r, rtol=rtol)
    ff = matlib.svd(f, rtol=rtol)
    rp = fr.pinv()
    fp = ff.pinv()
    a_s = matlib.pinv(f @ rp, rtol=rtol)
    a_p = r @ fp
    h = matlib.pinv((fp @ f) @ (rp @ r), rtol=rtol)
    h_norm = matlib.hs_norm(h)
    h_rank = matlib.svd(h, rtol=rtol).numerical_rank
    if h_norm < np.sqrt(h_rank) - 1e-9:
        raise AssertionError(f"projector norm {h_norm} below sqrt(rank) {np.sqrt(h_rank)}")
    u11 = fr.v.conj().T @ ff.v
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
