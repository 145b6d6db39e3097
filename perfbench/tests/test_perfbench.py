"""Tests of the benchmark's own arithmetic, checker and tracer.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import launch  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


# ---------------------------------------------------------------- self time

def test_self_times_on_synthetic_tree():
    spans = [
        (0.0, 10.0, -1),   # 0 root
        (1.0, 4.0, 0),     # 1 child
        (3.0, 6.0, 0),     # 2 child overlapping 1: covered once
        (2.0, 3.0, 1),     # 3 grandchild under 1
        (9.0, 12.0, 0),    # 4 child running past its parent: clipped to 10
        (20.0, 21.5, -1),  # 5 second root, no children
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3, 1.5])


def test_summarize_and_layer_metrics_use_self_and_inclusive_time():
    trace = {
        "run_id": "t",
        "names": ["bench.run_sweep_probes", "protocols.standard_inversion_matrix",
                  "matlib.pinv", "matlib.svd", "homodyne.wigner"],
        # [name, start, end, parent]
        "spans": [
            [0, 0.0, 10.0, -1],
            [1, 1.0, 5.0, 0],
            [2, 1.5, 3.0, 1],
            [3, 2.0, 2.5, 2],
            [2, 3.0, 4.5, 1],
            [3, 3.5, 4.5, 4],
        ],
        "counts": {"matlib.svd.flops": 2.5e6, "protocols.estimate_batch.valid": 99,
                   "protocols.estimate_batch.attempted": 100, "qstate.srm.accepted": 3},
    }
    stats = layers.summarize(trace)
    assert stats["matlib.pinv"]["calls"] == 2
    assert stats["matlib.pinv"]["total_s"] == pytest.approx(3.0)
    assert stats["matlib.pinv"]["self_s"] == pytest.approx(1.5)
    assert stats["protocols.standard_inversion_matrix"]["self_s"] == pytest.approx(1.0)
    assert stats["bench.run_sweep_probes"]["self_s"] == pytest.approx(6.0)
    stamp = {"import_s": 0.4, "cpu_start": [1.0, 0.0], "cpu_end": [7.0, 0.0]}
    m = layers.layer_metrics(trace, stamp, wall_s=8.0, setup_s=0.5, workers=1,
                             bytes_written=123)
    assert m["bench.self_s"] == pytest.approx(6.0)
    assert m["matlib.pinv.us_per_call"] == pytest.approx(1.5e6)
    assert m["matlib.svd.self_s"] == pytest.approx(1.5)
    assert m["matlib.svd.computed_mflop"] == pytest.approx(2.5)
    assert m["protocols.estimate_batch.valid_ratio"] == pytest.approx(0.99)
    assert m["bench.pool.busy_frac"] == pytest.approx(6.0 / 7.5)
    assert m["homodyne.homodyne_measurement.calls"] == 0
    assert m["homodyne.homodyne_measurement.us_per_call"] == 0.0
    # no square-root measurement was attempted: no attempt failed
    assert (m["qstate.square_root_measurement.calls"], m["qstate.srm.accept_ratio"]) == (0, 1.0)
    assert m["protocols.estimate_batch.attempted"] == 100
    two = layers.layer_metrics(trace, {**stamp, "cpu_start": [1.0, 2.0], "cpu_end": [1.5, 11.0]},
                               wall_s=8.0, setup_s=0.5, workers=2, bytes_written=0)
    assert two["bench.pool.busy_frac"] == pytest.approx(9.0 / 15.0)


def test_metric_names_match_benchmark_json():
    trace = {"run_id": "t", "names": [], "spans": [], "counts": {}}
    stamp = {"import_s": 0.4, "cpu_start": [1.0, 0.0], "cpu_end": [2.0, 0.0]}
    computed = set(layers.layer_metrics(trace, stamp, wall_s=2.0, setup_s=0.5, workers=1,
                                        bytes_written=0))
    assert computed | {"trace.overhead_frac"} == set(run.declared("per_layer"))
    assert set(run.end_to_end_values([], [])) == set(run.declared("end_to_end"))
    assert (run.best([3.0, 1.0, 2.0], "lower"), run.best([3.0, 1.0, 2.0], "higher")) == (1.0, 3.0)


def test_git_commit_outside_a_checkout(tmp_path):
    assert run.git_commit(str(tmp_path)) == "unknown"


def test_svd_flop_formula():
    assert launch.svd_flops((60, 24)) == 6 * 60 * 24 ** 2 + 20 * 24 ** 3
    assert launch.svd_flops((24, 60)) == launch.svd_flops((60, 24))


# ------------------------------------------------------------------ checker

KEYS = tuple((m, 6, e) for m in (4, 5) for e in range(3))
SEED = 7


def _expected():
    return check.Expected(d=2, seed=SEED, keys=KEYS, csv_name="out.csv")


def _reference():
    return {key: (0.01 * (i + 1), 0.02 * (i + 1)) for i, key in enumerate(KEYS)}


def _write_run(tmp_path, rows=None):
    out = tmp_path / "out"
    out.mkdir()
    ref = _reference()
    rows = rows if rows is not None else [
        f"2,3,{m},{M},{SEED},{e},{ref[(m, M, e)][0]:.12e},{ref[(m, M, e)][1]:.12e},"
        f"{ref[(m, M, e)][0] / ref[(m, M, e)][1]:.12e}"
        for (m, M, e) in KEYS
    ]
    (out / "out.csv").write_text(check.CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    (out / "out.csv.meta.json").write_text(json.dumps({"seed": SEED, "d": 2}))
    stdout = f"{len(KEYS)} rows written to {out / 'out.csv'}\n"
    return str(out), rows, stdout


def test_checker_accepts_good_run(tmp_path):
    out, _, stdout = _write_run(tmp_path)
    result = check.check_run(out, _expected(), 0, stdout, _reference())
    assert result.ok, result.problems
    assert (result.attempted, result.failed) == (len(KEYS), 0)
    assert set(result.digests) == {"out.csv", "out.csv.meta.json"}


def test_checker_rejects_perturbed_value(tmp_path):
    out, rows, stdout = _write_run(tmp_path)
    parts = rows[2].split(",")
    parts[6] = f"{float(parts[6]) * (1 + 1e-5):.12e}"
    parts[8] = f"{float(parts[6]) / float(parts[7]):.12e}"
    rows[2] = ",".join(parts)
    (tmp_path / "out" / "out.csv").write_text(
        check.CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    result = check.check_run(out, _expected(), 0, stdout, _reference())
    assert result.failed == 1
    assert any("reference" in p for p in result.problems)
    # within the tolerance the same kind of change passes
    parts[6] = f"{float(rows[2].split(',')[6]) / (1 + 1e-5) * (1 + 1e-8):.12e}"
    parts[8] = f"{float(parts[6]) / float(parts[7]):.12e}"
    rows[2] = ",".join(parts)
    (tmp_path / "out" / "out.csv").write_text(
        check.CSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
    assert check.check_run(out, _expected(), 0, stdout, _reference()).ok


def test_checker_rejects_truncated_csv(tmp_path):
    out, rows, stdout = _write_run(tmp_path)
    text = check.CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)
    (tmp_path / "out" / "out.csv").write_text(text[:-9])  # cut inside the last row
    result = check.check_run(out, _expected(), 0, stdout, _reference())
    assert result.failed == 1
    assert not result.ok


def test_checker_rejects_non_finite_and_missing_cells(tmp_path):
    out, rows, stdout = _write_run(tmp_path)
    parts = rows[0].split(",")
    parts[7], parts[8] = "0.000000000000e+00", "inf"
    bad = [",".join(parts)] + rows[1:-1]  # last cell missing
    (tmp_path / "out" / "out.csv").write_text(
        check.CSV_HEADER + "\n" + "".join(r + "\n" for r in bad))
    result = check.check_run(out, _expected(), 0, stdout, None)
    assert result.failed == 2


def test_checker_rejects_resumed_zero_row_run(tmp_path):
    out, _, _ = _write_run(tmp_path)
    stdout = f"0 rows written to {os.path.join(out, 'out.csv')}\n"
    result = check.check_run(out, _expected(), 0, stdout, _reference())
    assert result.failed == len(KEYS)


def test_nonzero_exit_fails_every_cell(tmp_path):
    out, _, stdout = _write_run(tmp_path)
    result = check.check_run(out, _expected(), 2, stdout, _reference())
    assert (result.attempted, result.failed) == (len(KEYS), len(KEYS))


def test_checker_rejects_bad_wigner_file(tmp_path):
    out, _, stdout = _write_run(tmp_path)
    exp = check.Expected(d=2, seed=SEED, keys=KEYS, csv_name="out.csv",
                         wigner_files=("out_wigner_true.csv",), wigner_points=2)
    grid = tmp_path / "out" / "out_wigner_true.csv"
    grid.write_text("x,p,w\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
    assert check.check_run(out, exp, 0, stdout, _reference()).ok
    grid.write_text("x,p,w\n0,0,1\n0,1,1\n1,0,nan\n1,1,1\n")
    assert check.check_run(out, exp, 0, stdout, _reference()).failed == len(KEYS)


# ------------------------------------------------------------------- tracer

def test_tracer_records_nested_spans_and_restores_attributes():
    import tomolin

    originals = {(mod, attr): getattr(getattr(tomolin, mod), attr) for mod, attr in launch.TRACED}
    originals.update({("bench", a): getattr(tomolin.bench, a) for a in launch.RUN_FUNCTIONS})
    tracer = launch.Tracer("test")
    tracer.install(tomolin)
    try:
        rng = np.random.default_rng(0)
        probes = tomolin.protocols.ProbeSet.from_blochs(rng.standard_normal((3, 6)))
        patterns = tomolin.protocols.PatternSet(rng.standard_normal((5, 6)))
        tomolin.protocols.standard_inversion_matrix(patterns, probes)
        kets = tomolin.qstate.haar_random_pure(2, rng, size=2)
        kets[1] = kets[0]
        with pytest.raises(tomolin.qstate.RankDeficientGramError):
            tomolin.qstate.square_root_measurement(kets)
    finally:
        tracer.restore()
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(tomolin, mod), attr) is fn
    doc = tracer.document()
    names = [doc["names"][s[0]] for s in doc["spans"]]
    assert names == ["protocols.standard_inversion_matrix", "matlib.pinv", "matlib.svd",
                     "matlib.pinv", "matlib.svd", "qstate.square_root_measurement"]
    parents = [s[3] for s in doc["spans"]]
    assert parents == [-1, 0, 1, 0, 3, -1]
    assert all(s[1] <= s[2] for s in doc["spans"])
    assert doc["counts"]["qstate.srm.rejected"] == 1
    assert doc["counts"]["matlib.svd.flops"] == launch.svd_flops((4, 6)) + launch.svd_flops((5, 4))
