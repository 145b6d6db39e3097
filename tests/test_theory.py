"""The paper's account of the two protocols, checked on the cells of real
runs: the MSE of a protocol follows ||A[1:]||^2 of its inversion matrix
(A_s = (F R+)+ or A_p = R F+), and the two matrices coincide where the
reverse-order law holds.

The cells come from bench.cells, drawn exactly as a run draws them.  The
thresholds were fixed from seeds 1-6 and 8-20, not from the seeds tested.
"""

import numpy as np
import pytest

import oracles
from tomolin import bench


def _sq_norm(a) -> float:
    return float(np.linalg.norm(a) ** 2)


def _residual(cell) -> float:
    """||A_s - A_p|| / ||A_s|| of a cell."""
    a_s, a_p = cell.invs
    return float(np.linalg.norm(a_s - a_p) / np.linalg.norm(a_s))


@pytest.mark.parametrize("seed", [42, 7])
def test_mse_ratio_follows_norm_ratio(seed):
    # the default sweep-outcomes grid with 10 ensembles: 120 cells.  The
    # correlation read 0.9966 at seed 42 and 0.9978 at seed 7, and between
    # 0.973 and 0.9973 at the 19 other seeds
    doc = {**bench.DEFAULT_GRIDS["sweep-outcomes"], "experiment": "sweep-outcomes",
           "ensembles": 10, "seed": seed}
    cfg = bench.ExperimentConfig.from_dict(doc)
    rows = bench.run_sweep_outcomes(cfg)
    cells = oracles.keyed_cells(cfg)
    assert [(r.m, r.ensemble, r.M) for r in rows] == [(m, e, c.M) for m, e, c in cells]
    mse_ratio = [np.log(r.e2_std / r.e2_pat) for r in rows]
    norm_ratio = [np.log(_sq_norm(c.invs[0][1:]) / _sq_norm(c.invs[1][1:]))
                  for _, _, c in cells]
    assert np.corrcoef(mse_ratio, norm_ratio)[0, 1] > 0.95


@pytest.mark.parametrize("seed", [42, 7])
def test_protocols_coincide_with_full_column_rank(seed):
    # M <= n + 1 = 16 probes and m >= M outcomes: R and F have full column
    # rank, so (F R+)+ = (R+)+ F+ = R F+.  The worst residual read 6.8e-13
    # over the other seeds; the selftest's equivalence check uses 1e-8
    cfg = bench.ExperimentConfig(experiment="sweep-probes", d=4, m_values=(18, 20, 24),
                                 M_values=(4, 8, 12, 16), ensembles=5, seed=seed)
    assert max(_residual(cell) for _, _, cell in oracles.keyed_cells(cfg)) < 1e-8


@pytest.mark.parametrize("seed", [42, 7])
def test_protocols_differ_at_m_equal_to_M(seed):
    # the default sweep-probes grid at m = M > n + 1: R has more columns
    # than rows and the law fails.  The smallest residual read 0.43 at seed
    # 7 and at least 0.49 over the other seeds
    cfg = bench.ExperimentConfig(experiment="sweep-probes", ensembles=5, seed=seed)
    resonant = [cell for m, _, cell in oracles.keyed_cells(cfg) if cell.M == m]
    assert len(resonant) == len(cfg.m_values) * cfg.ensembles
    assert min(map(_residual, resonant)) > 0.1
