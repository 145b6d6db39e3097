"""The two linear-inversion tomography protocols for unknown detectors.

Standard detector tomography calibrates first (A = F R+) and inverts the
calibrated response; data-pattern tomography fits the signal data with the
probe patterns and mixes the probes with the same coefficients.  Both are
expressed here as a single inversion matrix applied to the data vector, in
affine-augmented coordinates (1, r) so the constant detector offset is
carried implicitly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matlib, qstate

__all__ = [
    "NoiseSpec",
    "ProbeSet",
    "PatternSet",
    "InversionMatrix",
    "TomographySetup",
    "LimitingCaseDiagnostics",
    "DegenerateNormalizationError",
    "EstimationFailureError",
    "add_noise",
    "collect_patterns",
    "make_setup",
    "standard_inversion_matrix",
    "pattern_inversion_matrix",
    "oracle_inversion_matrix",
    "estimate",
    "estimate_batch",
    "trial_data",
    "batch_mse",
    "mse_theoretical",
    "mse_empirical",
    "limiting_case_diagnostics",
]

LEAD_FLOOR = 1e-6  # leading augmented coordinate below this is degenerate


class DegenerateNormalizationError(ArithmeticError):
    """Leading augmented coordinate of an estimate is too close to zero."""


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
    def n_params(self) -> int:
        return self.r_matrix.shape[0] - 1

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
    def n_outcomes(self) -> int:
        return self.f_matrix.shape[0]

    @property
    def n_probes(self) -> int:
        return self.f_matrix.shape[1]

    def prefix(self, count: int) -> "PatternSet":
        return PatternSet(self.f_matrix[:, :count])


@dataclass(frozen=True)
class InversionMatrix:
    """A data-to-state map in augmented coordinates."""

    kind: str  # standard | data-pattern | oracle
    matrix: np.ndarray  # (n + 1, m)

    @property
    def hs_norm_value(self) -> float:
        """Hilbert-Schmidt norm of the matrix, computed when read."""
        return matlib.hs_norm(self.matrix)

    @property
    def deaugmented(self) -> np.ndarray:
        """Rows mapping data to the physical coordinates (constant row dropped)."""
        return self.matrix[1:, :]


@dataclass(frozen=True)
class TomographySetup:
    """One frozen experiment: true detector, probes, their collected
    patterns, and the data-noise model."""

    detector: qstate.DetectorModel
    probes: ProbeSet
    patterns: PatternSet
    noise_data: NoiseSpec
    rtol: float | None = None


def add_noise(p, spec: NoiseSpec, rng) -> np.ndarray:
    """Perturb a probability vector, or each column of a matrix.

    fixed mode: p + dp with dp uniform on the sphere of radius spec.value.
    ratio mode: i.i.d. Gaussian per entry, sigma = spec.value * rms(column).
    """
    arr = np.asarray(p, dtype=float)
    if spec.value == 0.0:
        return arr.copy()
    vec = arr.ndim == 1
    cols = arr[:, None] if vec else arr
    if spec.mode == "fixed":
        dp = rng.standard_normal(cols.shape)
        dp *= spec.value / np.linalg.norm(dp, axis=0, keepdims=True)
        out = cols + dp
    else:
        rms = np.sqrt(np.mean(cols**2, axis=0, keepdims=True))
        out = cols + rng.standard_normal(cols.shape) * (spec.value * rms)
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


def make_setup(detector, probes, noise_patterns, noise_data, rng,
               rtol: float | None = None) -> TomographySetup:
    """Collect patterns once and freeze the experiment."""
    patterns = collect_patterns(detector, probes, noise_patterns, rng)
    return TomographySetup(detector=detector, probes=probes, patterns=patterns,
                           noise_data=noise_data, rtol=rtol)


def standard_inversion_matrix(patterns: PatternSet, probes: ProbeSet,
                              rtol: float | None = None) -> InversionMatrix:
    """Calibrate the detector as F R+ and invert it: A_s = (F R+)+."""
    _check_counts(patterns, probes)
    calibrated = patterns.f_matrix @ probes.pinv(rtol)
    return InversionMatrix("standard", matlib.pinv(calibrated, rtol=rtol))


def pattern_inversion_matrix(patterns: PatternSet, probes: ProbeSet,
                             rtol: float | None = None) -> InversionMatrix:
    """Fit data with patterns and mix the probes: A_p = R F+."""
    _check_counts(patterns, probes)
    return InversionMatrix(
        "data-pattern", probes.r_matrix @ matlib.pinv(patterns.f_matrix, rtol=rtol)
    )


def oracle_inversion_matrix(detector: qstate.DetectorModel,
                            rtol: float | None = None) -> InversionMatrix:
    """Pseudoinverse of the true augmented forward matrix."""
    return InversionMatrix("oracle", matlib.pinv(detector.augmented(), rtol=rtol))


def _check_counts(patterns: PatternSet, probes: ProbeSet) -> None:
    if patterns.n_probes != probes.n_probes:
        raise ValueError(
            f"pattern count {patterns.n_probes} != probe count {probes.n_probes}"
        )


def estimate(inv: InversionMatrix, f) -> np.ndarray:
    """Linear estimate r = (inv @ f)[1:] / (inv @ f)[0].

    The leading coordinate estimates the constant 1 and renormalises the
    affine scale; no physicality projection is applied.
    """
    f = np.asarray(f, dtype=float)
    raw = inv.matrix @ f
    lead = raw[0]
    if abs(lead) < LEAD_FLOOR:
        raise DegenerateNormalizationError(
            f"leading coordinate {lead:.2e} below {LEAD_FLOOR:.0e}"
        )
    return raw[1:] / lead


def estimate_batch(inv: InversionMatrix, fmat) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise estimates; returns (estimates, valid_mask).

    Columns whose leading coordinate falls below the degeneracy floor are
    flagged invalid instead of raising.
    """
    raw = inv.matrix @ np.asarray(fmat, dtype=float)
    lead = raw[0, :]
    valid = np.abs(lead) >= LEAD_FLOOR
    safe = np.where(valid, lead, 1.0)
    return raw[1:, :] / safe[None, :], valid


def mse_theoretical(inv: InversionMatrix, epsilon: float, m: int) -> float:
    """Noise-averaged error epsilon^2 ||A||^2 / m for sphere-uniform data
    noise of strength epsilon, using the de-augmented inversion matrix."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return epsilon**2 * matlib.hs_norm(inv.deaugmented) ** 2 / m


def mse_empirical(setup: TomographySetup, kind: str, n_trials: int, rng,
                  ensemble: str = "hs", max_failure_fraction: float = 0.01) -> float:
    """Monte-Carlo mean of ||r_hat - r_true||^2 over fresh true states and
    fresh data noise; the patterns stay fixed in the setup."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if kind == "standard":
        inv = standard_inversion_matrix(setup.patterns, setup.probes, rtol=setup.rtol)
    elif kind == "data-pattern":
        inv = pattern_inversion_matrix(setup.patterns, setup.probes, rtol=setup.rtol)
    else:
        raise ValueError(f"unknown protocol kind {kind!r}")
    basis = qstate.gellmann_basis(_dim_from_params(setup.probes.n_params))
    true_blochs = qstate.random_blochs(basis, n_trials, rng, ensemble)
    data = trial_data(setup.detector, true_blochs, setup.noise_data, rng)
    return batch_mse(inv, data, true_blochs, max_failure_fraction=max_failure_fraction)


def trial_data(detector: qstate.DetectorModel, true_blochs, noise: NoiseSpec,
               rng) -> np.ndarray:
    """Noisy detector responses (m, batch) to the true states given as Bloch
    columns (n, batch)."""
    true_blochs = np.atleast_2d(np.asarray(true_blochs, dtype=float))
    augmented = np.vstack([np.ones(true_blochs.shape[1]), true_blochs])
    return add_noise(detector.augmented() @ augmented, noise, rng)


def batch_mse(inv: InversionMatrix, data, true_blochs,
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


def _dim_from_params(n: int) -> int:
    d = int(round(np.sqrt(n + 1)))
    if d * d - 1 != n:
        raise ValueError(f"{n} parameters do not correspond to a d*d-1 Bloch space")
    return d


@dataclass(frozen=True)
class LimitingCaseDiagnostics:
    """Norm bookkeeping behind the regime analysis of the two protocols."""

    hs_norm_standard: float
    hs_norm_pattern: float
    h_singular_values: np.ndarray
    h_norm: float
    h_rank: int
    u11_norm: float
    u11_bound: float
    numerical_rank_probes: int
    numerical_rank_patterns: int


def limiting_case_diagnostics(patterns: PatternSet, probes: ProbeSet,
                              rtol: float | None = None) -> LimitingCaseDiagnostics:
    """Diagnostics for redundant probe sets, M > min(m, n + 1).

    Returns the protocol norms, the singular spectrum of the skew projector
    h = (F+ F R+ R)+ that appears in the standard inversion, and the norm of
    the n_aug x m corner block of V_R* V_F.  Checks ||h|| >= sqrt(rank h)
    (every singular value of a projector on its support is >= 1) and
    ||U11|| <= sqrt(min block dimension).
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
    a_s = standard_inversion_matrix(patterns, probes, rtol=rtol)
    a_p = pattern_inversion_matrix(patterns, probes, rtol=rtol)
    fp = matlib.pinv(f, rtol=rtol)
    rp = probes.pinv(rtol)
    h = matlib.pinv((fp @ f) @ (rp @ r), rtol=rtol)
    fh = matlib.svd(h, rtol=rtol)
    h_norm = matlib.hs_norm(h)
    h_rank = fh.numerical_rank
    if h_norm < np.sqrt(h_rank) - 1e-9:
        raise AssertionError(f"projector norm {h_norm} below sqrt(rank) {np.sqrt(h_rank)}")
    fr = matlib.svd(r, rtol=rtol)
    ff = matlib.svd(f, rtol=rtol)
    u11 = fr.v.conj().T @ ff.v
    u11_norm = matlib.hs_norm(u11)
    u11_bound = np.sqrt(min(u11.shape))
    if u11_norm > u11_bound + 1e-9:
        raise AssertionError(f"corner block norm {u11_norm} above bound {u11_bound}")
    return LimitingCaseDiagnostics(
        hs_norm_standard=a_s.hs_norm_value,
        hs_norm_pattern=a_p.hs_norm_value,
        h_singular_values=fh.singular_values,
        h_norm=h_norm,
        h_rank=h_rank,
        u11_norm=u11_norm,
        u11_bound=float(u11_bound),
        numerical_rank_probes=fr.numerical_rank,
        numerical_rank_patterns=ff.numerical_rank,
    )
