"""The paper's account of the two protocols, checked on the cells of real
runs: the MSE of a protocol follows ||A[1:]||^2 of its inversion matrix
(A_s = (F R+)+ or A_p = R F+), the two matrices coincide where the
reverse-order law holds, and a homodyne cell's MSE is mostly the
calibration bias that pattern noise leaves in A.

The cells come from bench.cells, drawn exactly as a run draws them.  The
thresholds were fixed from seeds 1-6 and 8-20, not from the seeds tested.
"""

import functools

import numpy as np
import pytest

import oracles
from tomolin import bench, homodyne, protocols


def _sq_norm(a) -> float:
    return float(np.linalg.norm(a) ** 2)


def _residual(cell) -> float:
    """||A_s - A_p|| / ||A_s|| of a cell."""
    a_s, a_p = cell.invs
    return float(np.linalg.norm(a_s - a_p) / np.linalg.norm(a_s))


@functools.lru_cache(maxsize=None)
def _outcome_sweep(seed: int) -> tuple:
    """(rows, keyed cells) of the default sweep-outcomes grid with 10
    ensembles, 120 cells, at seed."""
    doc = {**bench.DEFAULT_GRIDS["sweep-outcomes"], "experiment": "sweep-outcomes",
           "ensembles": 10, "seed": seed}
    cfg = bench.ExperimentConfig.from_dict(doc)
    return bench.run_sweep_outcomes(cfg), oracles.keyed_cells(cfg)


@pytest.mark.parametrize("seed", [42, 7])
def test_mse_ratio_follows_norm_ratio(seed):
    # the correlation read 0.9966 at seed 42 and 0.9978 at seed 7, and
    # between 0.973 and 0.9973 at the 19 other seeds
    rows, cells = _outcome_sweep(seed)
    assert [(m, e, M) for m, M, e, *_ in rows] == [(m, e, c.M) for m, e, c in cells]
    mse_ratio = [np.log(e2_std / e2_pat) for *_, e2_std, e2_pat in rows]
    norm_ratio = [np.log(_sq_norm(c.invs[0][1:]) / _sq_norm(c.invs[1][1:]))
                  for _, _, c in cells]
    assert np.corrcoef(mse_ratio, norm_ratio)[0, 1] > 0.95


@pytest.mark.parametrize("seed", [42, 7])
def test_mean_mse_ratio_follows_norm_ratio_at_each_m(seed):
    # the means over the ensembles at each m = 20-60: their log ratio read
    # at most 0.039 at seeds 42 and 7, and at most 0.074 at the 19 other
    # seeds.  The minimal point m = n + 1 = 16 is left out: its heavy tails
    # and exclusions put the two means 0.37 to 0.49 apart in log
    rows, cells = _outcome_sweep(seed)
    m_values = sorted({r[0] for r in rows if r[0] >= 20})
    assert m_values == list(range(20, 61, 4))
    for m in m_values:
        mse_ratio = np.mean([e2_std / e2_pat for row_m, *_, e2_std, e2_pat in rows
                             if row_m == m])
        norm_ratio = np.mean([_sq_norm(c.invs[0][1:]) / _sq_norm(c.invs[1][1:])
                              for cell_m, _, c in cells if cell_m == m])
        assert abs(np.log(mse_ratio / norm_ratio)) < 0.1, m


def _homodyne_config(seed: int) -> bench.ExperimentConfig:
    """The default homodyne grid with 5 ensembles and 200 trials, 185
    cells, at seed."""
    doc = {**bench.DEFAULT_GRIDS["homodyne"], "experiment": "homodyne",
           "ensembles": 5, "trials": 200, "seed": seed}
    return bench.ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("seed", [42, 7])
def test_homodyne_trial_variance_follows_norm(seed):
    # a homodyne cell repeats one state p, so the spread of its estimates
    # r = A[1:] f / lead is the data noise alone, sigma = ratio * rms(p) in
    # each entry: a summed variance of sigma^2 ||A[1:]||^2 / lead^2, which
    # is mse_theoretical(A / lead, ratio * ||p||, m).  The trial mean stands
    # in for p.  On the default grid with 5 ensembles and 200 trials (185
    # cells) the median ratio of the two read 1.02 to 1.05, and their log
    # correlation 0.84 to 0.99, for both protocols at the other seeds
    cfg = _homodyne_config(seed)
    measured, predicted = [], []
    for m, _, cell in oracles.keyed_cells(cfg):
        mean = cell.data.mean(axis=1)
        epsilon = cfg.noise_ratio_data * np.linalg.norm(mean)
        for inv in cell.invs:
            r_hat, valid = protocols.estimate_batch(inv, cell.data)
            measured.append(np.var(r_hat[:, valid], axis=1, ddof=1).sum())
            predicted.append(protocols.mse_theoretical(inv / (inv[0] @ mean), epsilon, m))
    # one column per protocol, standard then pattern
    measured, predicted = np.reshape(measured, (-1, 2)), np.reshape(predicted, (-1, 2))
    assert np.all(np.abs(np.median(measured / predicted, axis=0) - 1.0) < 0.1)
    for column in range(2):
        logs = np.log(measured[:, column]), np.log(predicted[:, column])
        assert np.corrcoef(*logs)[0, 1] > 0.8


@pytest.mark.parametrize("seed", [42, 7])
def test_homodyne_mse_is_mostly_calibration_bias(seed):
    # the noiseless response D (1, r) of a homodyne cell's detector matrix
    # D gives the estimate (A D (1, r))[1:] / (A D (1, r))[0], which misses
    # the signal r by the bias that pattern noise leaves in A.  Its square
    # over the cell's MSE has the medians 0.938 and 0.911 (standard and
    # pattern) at seed 42 and 0.940 and 0.918 at seed 7, the 94% and 91%
    # that README quotes.  At the 19 other seeds they read 0.932-0.948 and
    # 0.900-0.925, at most 0.016 from those figures; with noiseless
    # patterns they read 1e-25
    shares = []
    for _, _, cell in oracles.keyed_cells(_homodyne_config(seed)):
        (r,) = cell.truth.T
        response = cell.detector @ np.concatenate([[1.0], r])
        for inv in cell.invs:
            estimate = inv @ response
            bias2 = _sq_norm(estimate[1:] / estimate[0] - r)
            shares.append(bias2 / protocols.batch_mse(inv, cell.data, cell.truth))
    # one column per protocol, standard then pattern
    medians = np.median(np.reshape(shares, (-1, 2)), axis=0)
    assert np.all(np.abs(medians - [0.94, 0.91]) < 0.02)


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


def test_homodyne_mses_do_not_depend_on_dx(monkeypatch):
    # the noise is a ratio of the response, so the bin width dx,
    # homodyne.BIN_WIDTH, scales D, F and the data alike and both inversion
    # matrices by 1 / dx: the MSEs move by rounding alone, at most 2.8e-10
    # relative on this grid, which includes the resonance m = M
    cfg = bench.ExperimentConfig(experiment="homodyne", d=4, m_values=(15, 16, 20, 30),
                                 M_values=(20,), ensembles=3, trials=50, seed=7)
    reference = np.array([row[3:] for row in bench.run_homodyne(cfg)])
    for dx in (1.0, 1e-3):
        monkeypatch.setattr(homodyne, "BIN_WIDTH", dx)
        rows = bench.run_homodyne(cfg)
        np.testing.assert_allclose([row[3:] for row in rows], reference, rtol=1e-8, atol=0)
