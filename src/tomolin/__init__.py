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

__version__ = "0.1.0"
