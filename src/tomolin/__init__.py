"""Linear-inversion tomography with unknown detectors.

Two protocols estimate a signal from data taken with an uncalibrated
measurement: standard detector tomography calibrates first and inverts,
data-pattern tomography fits the data with probe patterns directly.  The
package provides the pseudoinverse machinery explaining when the two
coincide and which one wins outside that regime, plus Monte-Carlo
benchmarks for random square-root measurements and inefficient homodyne
detection.
"""

from . import bench, homodyne, matlib, protocols, qstate, selftest
from .bench import ExperimentConfig, SweepResult, run_homodyne, run_sweep_outcomes, run_sweep_probes
from .matlib import GwDecomposition, SvdFactorization, gw_decompose, hs_norm, penrose_check, pinv, reverse_order_holds, svd
from .protocols import (
    PatternSet,
    ProbeSet,
    add_noise,
    collect_patterns,
    mse_theoretical,
    pattern_inversion_matrix,
    standard_inversion_matrix,
)
from .qstate import (
    affine_response,
    born_probabilities,
    bloch_to_state,
    gellmann_basis,
    haar_random_pure,
    povm_to_affine,
    random_density_hs,
    square_root_measurement,
    state_to_bloch,
)
from .selftest import run_selftest

__version__ = "0.1.0"
