"""Tests for the experiment runner: configuration, CSV output, seeding
determinism, output files that only a completed run replaces, the selftest
and the CLI."""

import ast
import concurrent.futures
import contextlib
import errno
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import oracles
import tomolin
from tomolin import bench, cli, homodyne, matlib, protocols, qstate, selftest

TINY_PROBES = dict(
    experiment="sweep-probes", d=2, m_values=(6,), M_values=(4, 6, 8),
    ensembles=3, trials=25, seed=7,
)
TINY_OUTCOMES = dict(
    experiment="sweep-outcomes", d=2, m_values=(4, 6, 10), M_values=(6,),
    ensembles=2, trials=20, seed=7,
)
# d = 4, so the diagonal Gell-Mann matrices have up to four terms
TINY_OUTCOMES_D4 = dict(
    experiment="sweep-outcomes", d=4, m_values=(16, 20, 30), M_values=(20,),
    ensembles=3, trials=20, seed=7,
)
TINY_HOMODYNE = dict(
    experiment="homodyne", d=4, m_values=(14, 16, 18, 40), M_values=(40,),
    ensembles=2, trials=20, seed=7, wigner_points=41,
)


class TestExperimentConfig:
    def test_defaults_validate(self):
        bench.ExperimentConfig()

    @pytest.mark.parametrize("overrides", [
        dict(experiment="mle"),
        dict(d=1),
        dict(m_values=()),
        dict(noise_ratio_data=-0.1),
        dict(ensembles=0),
        dict(seed=-1),
        dict(workers=0),
        dict(experiment="sweep-probes", d=4, m_values=(3,)),
        dict(eta=1.5),
        dict(out=""),
        dict(experiment="sweep-outcomes", M_values=(10, 20)),
    ], ids=["unknown-experiment", "d-below-2", "empty-m-values", "negative-noise",
            "no-ensembles", "negative-seed", "no-workers", "m-below-d", "eta-above-1",
            "empty-out", "outcomes-two-M"])
    def test_validation_rejects(self, overrides):
        from dataclasses import replace
        with pytest.raises(bench.ConfigError):
            replace(bench.ExperimentConfig(), **overrides)

    def test_every_field_has_one_rule(self):
        # a new field cannot go unchecked
        for f in fields(bench.ExperimentConfig):
            test, text = f.metadata["rule"]
            assert callable(test) and isinstance(text, str), f.name

    def test_readme_lists_every_field_with_its_default_and_rule(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = re.findall(r"^\| `(\w+)` \| `(.*)` \| (.*) \| .* \|$", fh.read(), re.M)
        assert rows == [(f.name, json.dumps(f.default), f.metadata["rule"][1])
                        for f in fields(bench.ExperimentConfig)]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(bench.ConfigError, match="unknown config keys"):
            bench.ExperimentConfig.from_dict({"probes": 10})
        # the bin width is homodyne.BIN_WIDTH, not a field
        with pytest.raises(bench.ConfigError, match=r"unknown config keys: \['dx'\]"):
            bench.ExperimentConfig.from_dict({"experiment": "homodyne", "dx": 0.1})
        # nor is the rank cutoff, which matlib owns
        with pytest.raises(bench.ConfigError, match=r"unknown config keys: \['rtol'\]"):
            bench.ExperimentConfig.from_dict({"experiment": "sweep-probes", "rtol": 0.5})
        # nor are the quadrature window homodyne.X_MAX, the Wigner span and
        # the export points of a homodyne run
        for name, value in (("x_max", 3.0), ("wigner_span", 5.0), ("wigner_export_m", [16])):
            with pytest.raises(bench.ConfigError, match=rf"unknown config keys: \['{name}'\]"):
                bench.ExperimentConfig.from_dict({"experiment": "homodyne", name: value})
        # nor is the probes' ensemble: every probe of a sweep is Hilbert-Schmidt
        with pytest.raises(bench.ConfigError, match=r"unknown config keys: \['state_ensemble'\]"):
            bench.ExperimentConfig.from_dict({"state_ensemble": "hs"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sweep-probes", "d": 2,
                                    "m_values": [5], "M_values": [4]}))
        cfg = bench.ExperimentConfig.from_dict(bench.read_config_document(str(path)))
        assert cfg.d == 2 and cfg.m_values == (5,)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_dict(bench.read_config_document(str(path)))


# for each field of the run record, a tiny run and another value of the field
_KNOB_SWEEP = dict(experiment="sweep-probes", d=2, m_values=[6], M_values=[6], ensembles=1,
                   trials=20, seed=7)
_KNOB_HOMODYNE = dict(experiment="homodyne", d=3, m_values=[9, 10, 12], M_values=[12],
                      ensembles=1, trials=20, seed=7, wigner_points=5)
KNOBS = {
    "experiment": (_KNOB_SWEEP, "sweep-outcomes"),
    "d": (_KNOB_SWEEP, 3),
    "m_values": (_KNOB_SWEEP, [5]),
    "M_values": (_KNOB_SWEEP, [8]),
    "noise_ratio_patterns": (_KNOB_SWEEP, 0.3),
    "noise_ratio_data": (_KNOB_SWEEP, 0.6),
    "ensembles": (_KNOB_SWEEP, 2),
    "trials": (_KNOB_SWEEP, 40),
    "seed": (_KNOB_SWEEP, 8),
    "eta": (_KNOB_HOMODYNE, 0.5),
    "wigner_points": (_KNOB_HOMODYNE, 7),
    "selftest_count": (dict(experiment="selftest", selftest_count=1), 2),
}
_RUNS = {"sweep-probes": bench.run_sweep_probes, "sweep-outcomes": bench.run_sweep_outcomes,
         "homodyne": bench.run_homodyne}


def _run_outputs(doc, directory) -> tuple:
    """({file: values}, selftest report) of a run of doc into directory:
    the MSE and ratio columns of its CSV and every column of its Wigner
    files, or the report of a selftest."""
    directory.mkdir()
    cfg = bench.ExperimentConfig.from_dict({**doc, "out": str(directory / "run.csv")})
    if cfg.experiment == "selftest":
        return {}, selftest.format_lines(selftest.run_selftest(cfg))
    _RUNS[cfg.experiment](cfg)
    return {path.name: np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                                  usecols=(6, 7, 8) if path.name == "run.csv" else None)
            for path in directory.glob("*.csv")}, None


@pytest.mark.parametrize("name", [f.name for f in fields(bench.ExperimentConfig)
                                  if f.name not in ("out", "workers")])
def test_every_recorded_field_moves_an_output(tmp_path, name):
    # a field that the run record holds moves what the run writes beyond
    # rounding: a value of the CSV or of a Wigner file
    # by more than 1e-6 relative, the count of rows or files, or the
    # selftest report
    assert name in KNOBS, f"{name} has no run that shows what it moves"
    doc, value = KNOBS[name]
    assert json.dumps(value) != json.dumps(getattr(bench.ExperimentConfig.from_dict(doc), name))
    (files, report), (moved, moved_report) = (
        _run_outputs(run, tmp_path / label)
        for label, run in (("base", doc), ("changed", {**doc, name: value})))
    assert report != moved_report or files.keys() != moved.keys() or any(
        files[f].shape != moved[f].shape or not np.allclose(files[f], moved[f], rtol=1e-6, atol=0)
        for f in files)


# the fields that no run, default grid or example sets, each with the
# reason it stays a field
KEPT = {
    "eta": "eta = 0 gives a homodyne detector of rank 1, the incomplete cell a rank check needs",
    "wigner_points": "GOLDEN pins 21-point Wigner grids, which a constant would move",
    "selftest_count": "tests run the selftest at 1 to 40 cases, for speed and fault injection",
}


def test_every_field_is_set_outside_the_tests():
    # a setting that no run, default or example sets is a constant, not a
    # config field: each field is set by the README's example, a default
    # grid, --full-scale or the CLI (the subcommand and --seed, --out and
    # --workers), or is KEPT for its reason
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        (example,) = re.findall(r"^```json\n(.*?)^```$", fh.read(), re.M | re.S)
    set_outside = {*json.loads(example), *bench.FULL_SCALE_HOMODYNE,
                   *(key for grid in bench.DEFAULT_GRIDS.values() for key in grid),
                   "experiment", "seed", "out", "workers"}
    assert sorted(KEPT.keys() & set_outside) == []
    assert [f.name for f in fields(bench.ExperimentConfig)
            if f.name not in set_outside | KEPT.keys()] == []


def read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == bench.CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestSweepProbes:
    def test_csv_schema_and_content(self, tmp_path):
        out = str(tmp_path / "probes.csv")
        cfg = bench.ExperimentConfig(**TINY_PROBES, out=out)
        rows = bench.run_sweep_probes(cfg)
        assert len(rows) == 3 * 3  # M points x ensembles
        parsed = read_rows(out)
        assert len(parsed) == 9
        for row in parsed:
            assert row[0] == "2" and row[1] == "3"
            assert int(row[2]) == 6 and int(row[3]) in (4, 6, 8)
            e2s, e2p, ratio = float(row[6]), float(row[7]), float(row[8])
            assert e2s > 0 and e2p > 0
            assert ratio == pytest.approx(e2s / e2p, rel=1e-9)
            # %.12e formatting
            assert "e" in row[6] and len(row[6].split("e")[0].split(".")[1]) == 12
        # LF endings, no CR
        with open(out, "rb") as fh:
            blob = fh.read()
        assert b"\r" not in blob and blob.endswith(b"\n")

    def test_metadata_sidecar(self, tmp_path):
        out = str(tmp_path / "probes.csv")
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out))
        meta = json.loads((tmp_path / "probes.csv.meta.json").read_text())
        assert meta["seed"] == 7 and meta["M_values"] == [4, 6, 8]

    def test_metadata_does_not_depend_on_out(self, tmp_path):
        # one config run into two directories, on one and on two workers,
        # writes the same record, which holds every field but out and workers
        for name, workers in (("a", 1), ("b", 2)):
            (tmp_path / name).mkdir()
            bench.run_sweep_probes(bench.ExperimentConfig(
                **TINY_PROBES, out=str(tmp_path / name / "probes.csv"), workers=workers))
        meta_a, meta_b = ((tmp_path / name / "probes.csv.meta.json").read_bytes()
                          for name in ("a", "b"))
        assert meta_a == meta_b
        assert sorted(json.loads(meta_a)) == sorted(
            f.name for f in fields(bench.ExperimentConfig) if f.name not in ("out", "workers"))

    def test_deterministic_across_worker_counts(self, tmp_path):
        out1 = str(tmp_path / "w1.csv")
        out2 = str(tmp_path / "w2.csv")
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out1, workers=1))
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out2, workers=2))
        with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
            assert fh1.read() == fh2.read()

    def test_rows_regenerable_in_isolation(self, tmp_path):
        cfg = bench.ExperimentConfig(**TINY_PROBES)
        rows = bench.run_sweep_probes(cfg)
        target = rows[4]
        m, M, ensemble = target[:3]
        assert ensemble > 0  # computed without the ensembles before it
        again = ensemble_rows(cfg, m, ensemble)
        match = [r for r in again if r[1] == M][0]
        assert match == target

    def test_pattern_resonance_at_equal_counts(self):
        # at m = M the pattern fit inverts a square, noise-limited matrix
        # and the data-pattern protocol loses badly
        rows = bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES))
        resonant = [e2_std / e2_pat for _, M, _, e2_std, e2_pat in rows if M == 6]
        assert np.mean(resonant) < 1.0

    def test_zero_noise_everywhere_hits_numerical_floor(self):
        cfg = bench.ExperimentConfig(**{**TINY_PROBES, "M_values": (8,)},
                                     noise_ratio_patterns=0.0, noise_ratio_data=0.0)
        rows = bench.run_sweep_probes(cfg)
        assert all(e2_std < 1e-16 and e2_pat < 1e-16 for *_, e2_std, e2_pat in rows)


class TestSweepOutcomes:
    def test_runs_and_orders_rows(self, tmp_path):
        out = str(tmp_path / "outcomes.csv")
        rows = bench.run_sweep_outcomes(bench.ExperimentConfig(**TINY_OUTCOMES, out=out))
        assert len(rows) == 3 * 2
        ms = [r[0] for r in rows]
        assert ms == sorted(ms)
        assert all(r[1] == 6 for r in rows)

    def test_probe_stream_shared_across_m(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES)
        basis_rows = {}
        for m in cfg.m_values:
            rows = ensemble_rows(cfg, m, 1)
            basis_rows[m] = rows[0]
        # distinct m cells exist and come from the same probe draw; the
        # derivation key for probes ignores m, so this must not raise
        assert len({r[0] for r in basis_rows.values()}) == 3

    def test_shared_probes_give_cellwise_rows(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        assert bench.run_sweep_outcomes(cfg) == cellwise_outcome_rows(cfg)

    def test_probe_pinv_once_per_ensemble(self, monkeypatch):
        calls = []
        pinv = matlib.pinv
        monkeypatch.setattr(matlib, "pinv",
                            lambda x: calls.append(x) or pinv(x))
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        bench.run_sweep_outcomes(cfg)
        # R+ once per ensemble, (F R+)+ and F+ once per cell
        assert len(calls) == cfg.ensembles + 2 * len(cfg.m_values) * cfg.ensembles

    def test_two_workers_give_cellwise_rows(self, tmp_path):
        out = tmp_path / "w2.csv"
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4, out=str(out), workers=2)
        bench.run_sweep_outcomes(cfg)
        assert out.read_text().splitlines() == csv_lines(cfg, cellwise_outcome_rows(cfg))

    def test_run_after_other_seed_draws_its_own_probes(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        other = bench.run_sweep_outcomes(bench.ExperimentConfig(**{**TINY_OUTCOMES_D4, "seed": 8}))
        rows = bench.run_sweep_outcomes(cfg)
        assert rows == cellwise_outcome_rows(cfg)
        assert all(a[3] != b[3] for a, b in zip(rows, other))


def ensemble_rows(cfg, m, ensemble):
    """The rows (m, M, ensemble, e2_std, e2_pat) of one ensemble at m,
    computed from cells(cfg, m, ensemble) alone."""
    with bench._numerics():
        return [(m, cell.M, ensemble, *(protocols.batch_mse(inv, cell.data, cell.truth)
                                        for inv in cell.invs))
                for cell in bench.cells(cfg, m, ensemble)]


def cellwise_outcome_rows(cfg):
    """The rows of an outcome sweep, each cell run on its own with its probe
    set drawn afresh."""
    rows = []
    for m in cfg.m_values:
        for e in range(cfg.ensembles):
            bench._outcome_probes.cache_clear()
            rows.extend(ensemble_rows(cfg, m, e))
    return rows


def csv_lines(cfg, rows):
    """The CSV lines of cfg's run that holds rows, as _write_rows writes
    them."""
    csv = io.StringIO()
    bench._write_rows(csv, cfg, rows)
    return [bench.CSV_HEADER, *csv.getvalue().splitlines()]


class TestRowCodec:
    # (m, M, ensemble, e2_std, e2_pat) on TINY_PROBES' grid, with a zero
    # pattern MSE (ratio inf) and the smallest subnormal
    ROWS = [(6, 4, 0, 0.125, 0.5), (6, 6, 1, 2.0, 0.0), (6, 8, 2, 5e-324, 5e-324),
            (6, 4, 2, 1.0, 5e-324), (6, 8, 0, 0.0, 3.0), (6, 6, 2, 1.0 / 3.0, 1e300)]

    def test_write_rows_has_the_old_format(self):
        cfg = bench.ExperimentConfig(**TINY_PROBES)
        csv = io.StringIO()
        bench._write_rows(csv, cfg, self.ROWS)
        # the f-string of the former result record, with its ratio
        expected = "".join(
            f"{cfg.d},{cfg.n_params},{m},{M},{cfg.seed},{e},"
            f"{e2_std:.12e},{e2_pat:.12e},{e2_std / e2_pat if e2_pat > 0 else np.inf:.12e}\n"
            for m, M, e, e2_std, e2_pat in self.ROWS)
        assert csv.getvalue() == expected
        assert "inf" in expected.splitlines()[1] and "4.940656458412e-324" in expected


RUNS = {
    "probes": (TINY_PROBES, bench.run_sweep_probes),
    "outcomes": (TINY_OUTCOMES_D4, bench.run_sweep_outcomes),
    "homodyne": (TINY_HOMODYNE, bench.run_homodyne),
}


class TestCells:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_cells_give_the_rows_of_a_run(self, name):
        tiny, run = RUNS[name]
        cfg = bench.ExperimentConfig(**tiny)
        rows = run(cfg)
        again = [(m, cell.M, e, *(protocols.batch_mse(inv, cell.data, cell.truth)
                                  for inv in cell.invs))
                 for m, e, cell in oracles.keyed_cells(cfg)]
        # exact float equality: the same bits
        assert sorted(again, key=lambda r: r[:3]) == rows

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_cell_shapes(self, name):
        cfg = bench.ExperimentConfig(**RUNS[name][0])
        n = cfg.n_params
        truth = (n, 1) if name == "homodyne" else (n, cfg.trials)
        for m in cfg.m_values:
            cells = bench.cells(cfg, m, 0)
            assert [cell.M for cell in cells] == list(cfg.M_values)
            for cell in cells:
                assert [inv.shape for inv in cell.invs] == [(n + 1, m)] * 2
                assert cell.data.shape == (m, cfg.trials) and cell.truth.shape == truth
                # one detector matrix D, shared along M
                assert cell.detector.shape == (m, n + 1) and cell.detector is cells[0].detector

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_cells_draw_on_one_blas_thread(self, name, monkeypatch):
        # cells pins numpy's OpenBLAS to one thread by itself, as a run
        # does, and restores the count it found
        blas = bench._bundled_openblas()
        if blas is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get_threads, set_threads = blas
        seen = []
        collect_patterns = protocols.collect_patterns

        def spy(*args):
            seen.append(get_threads())
            return collect_patterns(*args)

        monkeypatch.setattr(protocols, "collect_patterns", spy)
        cfg = bench.ExperimentConfig(**RUNS[name][0])
        previous = get_threads()
        set_threads(2)
        try:
            if get_threads() != 2:
                pytest.skip("OpenBLAS runs on one thread at most here")
            bench.cells(cfg, cfg.m_values[0], 0)
            assert get_threads() == 2
        finally:
            set_threads(previous)
        assert seen == [1]

    @pytest.mark.parametrize("doc, m", [
        (dict(experiment="sweep-outcomes", d=4, m_values=(2,), M_values=(6,)), 2),
        (dict(experiment="homodyne", d=2, m_values=(4,), M_values=(6,)), 4),
        ({**TINY_PROBES, "noise_ratio_data": -1}, 6),
    ], ids=["m-below-d", "homodyne-qubit", "negative-noise"])
    def test_cells_refuse_an_invalid_config(self, doc, m):
        # a run refuses these configs, so the cells of a run refuse them too
        with pytest.raises(bench.ConfigError):
            bench.cells(bench.ExperimentConfig(**doc), m, 0)

    def test_selftest_config_has_no_cells(self):
        with pytest.raises(bench.ConfigError, match="no cells"):
            bench.cells(bench.ExperimentConfig(experiment="selftest"), 4, 0)


@pytest.mark.parametrize("name", sorted(
    info.name for info in pkgutil.iter_modules(tomolin.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tomolin.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_holds_only_its_modules():
    # every public name lives in its module; the package re-exports none
    public = {name: value for name, value in vars(tomolin).items() if not name.startswith("_")}
    assert [name for name, value in public.items() if not inspect.ismodule(value)] == []


def _is_entry_point(name: str) -> bool:
    # called only from outside the package: the CLI, the runs and cells
    return name in ("main", "cells") or name.startswith("run_")


def _package_trees() -> dict:
    """{module: syntax tree} of every module in src/tomolin."""
    trees = {}
    for info in pkgutil.iter_modules(tomolin.__path__):
        with open(importlib.import_module(f"tomolin.{info.name}").__file__,
                  "r", encoding="utf-8") as fh:
            trees[info.name] = ast.parse(fh.read())
    return trees


def test_every_public_definition_is_used_in_the_package():
    # a public module-level function or class must be named somewhere in
    # src/tomolin beyond its definition and __all__, whose entries are
    # strings, not names
    trees = _package_trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and not _is_entry_point(node.name)
              and node.name not in used]
    assert unused == []


def _calls_by_function(tree) -> list:
    """(called name, innermost enclosing function) of every call in tree."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                found.append((func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None), owner))
            visit(child, owner)

    visit(tree, None)
    return found


def _package_calls(owners) -> list:
    """(module, called name, enclosing function) of every call in
    src/tomolin of a name in owners."""
    return [(module, name, owner) for module, tree in _package_trees().items()
            for name, owner in _calls_by_function(tree) if name in owners]


def test_numerics_have_one_owner():
    # only bench._numerics pins BLAS threads and silences overflow, for
    # every unit of work
    owners = {"errstate": {"_numerics"}, "_bundled_openblas": {"_numerics"}}
    calls = _package_calls(owners)
    assert ("bench", "_bundled_openblas", "_numerics") in calls
    assert [call for call in calls if call[2] not in owners[call[1]]] == []


def test_rank_cutoff_has_one_owner():
    # the rank cutoff is matlib.svd's one expression: no function or lambda
    # in the package takes an rtol
    takers = {(module, getattr(node, "name", "lambda"))
              for module, tree in _package_trees().items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              and "rtol" in {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}}
    assert takers == set()


def _passed_parameters(call: ast.Call, node: ast.FunctionDef) -> set:
    """The parameters of the function node that call passes."""
    positional = node.args.posonlyargs + node.args.args
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(keyword.arg is None for keyword in call.keywords):
        return {arg.arg for arg in positional + node.args.kwonlyargs}
    return ({arg.arg for arg in positional[:len(call.args)]}
            | {keyword.arg for keyword in call.keywords})


def _is_call_of(call, caller: str, module: str, name: str) -> bool:
    # module.name(...) anywhere, or name(...) inside module itself
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == name and isinstance(func.value, ast.Name) and func.value.id == module
    return caller == module and isinstance(func, ast.Name) and func.id == name


def test_every_default_is_overridden_in_the_package():
    # a defaulted parameter of a public module-level function that no call
    # in src/tomolin passes is a constant, not a parameter
    trees = _package_trees()
    unpassed = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") \
                    or _is_entry_point(node.name):
                continue
            positional = node.args.posonlyargs + node.args.args
            defaulted = [arg.arg for arg in positional[len(positional) - len(node.args.defaults):]]
            defaulted += [arg.arg for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            passed = set().union(*(_passed_parameters(call, node)
                                   for caller, caller_tree in trees.items()
                                   for call in ast.walk(caller_tree)
                                   if _is_call_of(call, caller, module, node.name)))
            unpassed += [f"{module}.{node.name}({name})" for name in defaulted
                         if name not in passed]
    assert unpassed == []


def test_c_libraries_have_one_loader():
    # only bench._c_function opens a C library, and it types every
    # function it returns
    assert _package_calls({"CDLL"}) == [("bench", "CDLL", "_c_function")]


def _exit_in_worker(cfg, m):
    os._exit(1)


def _unexpected_task(cfg, m):
    raise AssertionError(f"the cells of m {m} computed")


def _cli_env(**extra):
    """The environment of a CLI subprocess that imports tomolin from src."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


class TestRunLayer:
    @pytest.mark.parametrize("tiny, run", [
        (TINY_OUTCOMES_D4, bench.run_sweep_outcomes),
        (TINY_HOMODYNE, bench.run_homodyne),
    ], ids=["outcomes", "homodyne"])
    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_run(self, monkeypatch, tiny, run, workers, pools):
        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        run(bench.ExperimentConfig(**tiny, workers=workers))
        assert len(built) == pools

    def test_pool_has_at_most_one_worker_per_m(self, monkeypatch, tmp_path):
        # a forked pool starts all of its workers at the first submit; the
        # stand-in pool records its size and what it maps, and maps in this
        # process
        sizes, mapped = [], []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                args = [list(values) for values in iterables]
                mapped.append(args)
                return map(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES, workers=5000)
        m_values = list(TINY_OUTCOMES["m_values"])
        cells = len(m_values) * TINY_OUTCOMES["ensembles"]
        # and at most one per CPU this process may use, or per CPU where the
        # affinity mask cannot be read
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert len(bench.run_sweep_outcomes(cfg)) == cells
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert len(bench.run_sweep_outcomes(cfg)) == cells
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert len(bench.run_sweep_outcomes(cfg)) == cells
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(bench.run_sweep_outcomes(cfg)) == cells
        assert sizes == [3, 3, 3, 1]
        # one task per m, each mapping the m values once
        assert mapped == [[m_values]] * 4
        # a grid of the last two m maps those, and its CSV holds the rows of
        # the whole grid's last two m
        whole = bench.run_sweep_outcomes(bench.ExperimentConfig(**TINY_OUTCOMES))
        out = tmp_path / "outcomes.csv"
        mapped.clear()
        rows = bench.run_sweep_outcomes(bench.ExperimentConfig(
            **{**TINY_OUTCOMES, "m_values": m_values[1:]}, out=str(out), workers=5000))
        assert rows == whole[TINY_OUTCOMES["ensembles"]:]
        assert mapped == [[m_values[1:]]]
        assert out.read_text().splitlines()[1:] == csv_lines(
            bench.ExperimentConfig(**TINY_OUTCOMES), rows)[1:]

    @pytest.mark.parametrize("run, doc", [
        (bench.run_sweep_probes, TINY_OUTCOMES),
        # a sweep-probes config: an outcome sweep would write only M = 6
        (bench.run_sweep_outcomes, dict(d=2, m_values=(4,), M_values=(6, 8), ensembles=1,
                                        trials=5)),
        # a sweep-probes config at d = 2, below the homodyne minimum of 3
        (bench.run_homodyne, dict(d=2, m_values=(4,), M_values=(6,), ensembles=1, trials=5)),
    ], ids=["probes", "outcomes", "homodyne"])
    def test_run_refuses_another_experiments_config(self, tmp_path, run, doc):
        with pytest.raises(bench.ConfigError, match="experiment"):
            run(bench.ExperimentConfig(**doc, out=str(tmp_path / "run.csv")))
        assert os.listdir(tmp_path) == []

    def test_blas_pinned_during_run_and_restored(self, monkeypatch, tmp_path):
        # every SVD and every estimate of a run, of its Wigner exports
        # (_export_wigner) and of the selftest sees one OpenBLAS thread,
        # and each run restores the count it found
        blas = bench._bundled_openblas()
        if blas is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get_threads, set_threads = blas
        seen = {"svd": [], "estimate_batch": []}

        def recording(fn, calls):
            def spy(*args, **kwargs):
                calls.append(get_threads())
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(matlib, "svd", recording(matlib.svd, seen["svd"]))
        monkeypatch.setattr(protocols, "estimate_batch",
                            recording(protocols.estimate_batch, seen["estimate_batch"]))
        runs = [
            lambda: bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES)),
            lambda: bench.run_homodyne(bench.ExperimentConfig(
                **{**TINY_HOMODYNE, "ensembles": 1}, out=str(tmp_path / "homo.csv"))),
            lambda: selftest.run_selftest(bench.ExperimentConfig(experiment="selftest",
                                                                 selftest_count=2)),
        ]
        previous = get_threads()
        set_threads(2)
        try:
            if get_threads() != 2:
                pytest.skip("OpenBLAS runs on one thread at most here")
            after, estimates = [], []
            for run in runs:
                count = len(seen["estimate_batch"])
                run()
                after.append(get_threads())
                estimates.append(len(seen["estimate_batch"]) - count)
        finally:
            set_threads(previous)
        assert after == [2, 2, 2]
        assert set(seen["svd"]) == set(seen["estimate_batch"]) == {1}
        # homodyne: two per export at m 16 and 40, then two per cell at four m
        assert estimates[1] == 2 * 4 + 2 * 2 and estimates[0] > 0 and estimates[2] > 0

    def test_forkserver_workers_run(self):
        # a forkserver, not the run, is the workers' parent, and the
        # initializer must not take that for a dead run
        code = ("import multiprocessing, tomolin.bench as b; "
                "multiprocessing.set_start_method('forkserver'); "
                f"print(len(b.run_sweep_outcomes(b.ExperimentConfig(**{TINY_OUTCOMES!r}, "
                "workers=2))))")
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.split() == ["6"]


def _proc_state(pid) -> tuple:
    """(state, parent pid) of a process from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "r") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _alive(pid) -> bool:
    stat = _proc_state(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid: int) -> list:
    stats = {int(entry): _proc_state(entry) for entry in os.listdir("/proc") if entry.isdigit()}
    return [child for child, stat in stats.items()
            if stat is not None and stat[0] != "Z" and stat[1] == pid]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux only")
def test_worker_initializer_arms_parent_death_signal():
    # PR_GET_PDEATHSIG reads the armed signal; a parent pid other than the
    # expected one means the parent died before, and the worker exits
    code = ("import ctypes, os, tomolin.bench as b; b._init_worker(os.getppid()); "
            "sig = ctypes.c_int(); ctypes.CDLL(None).prctl(2, ctypes.byref(sig)); "
            "print(sig.value, flush=True); b._init_worker(os.getppid() + 1); print('alive')")
    result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and result.stdout.split() == [str(int(signal.SIGTERM))]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_killed_run_leaves_no_workers(tmp_path):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(dict(d=3, m_values=list(range(9, 500)), M_values=[12],
                                   ensembles=4, trials=200)))
    out = tmp_path / "o.csv"
    # the rows of a run go to o.csv.tmp until the run completes
    tmp = tmp_path / "o.csv.tmp"
    proc = subprocess.Popen([sys.executable, "-m", "tomolin.cli", "sweep-outcomes", "--config",
                             str(cfg), "--workers", "2", "--out", str(out)],
                            env=_cli_env(), start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not (tmp.exists() and tmp.read_text().count("\n") > 1):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        workers = _children(proc.pid)
        assert proc.poll() is None and len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


# runs long enough, some 200 cells, that a kill after their first rows
# finds them mid-grid; homodyne exports at m = n + 1 = 9 and m = M = 20.
# "homodyne-wigner" is killed in its Wigner export instead, once a
# temporary Wigner file exists: five 201 x 201 grids, written before its
# two cells
KILLED_RUNS = {
    "sweep-outcomes": dict(experiment="sweep-outcomes", d=3, m_values=list(range(9, 109)),
                           M_values=[12], ensembles=2, trials=100, seed=7),
    "homodyne": dict(experiment="homodyne", d=3, m_values=list(range(9, 109)), M_values=[20],
                     ensembles=2, trials=20, seed=7, wigner_points=21),
    "homodyne-wigner": dict(experiment="homodyne", d=3, m_values=[9, 20], M_values=[20],
                            ensembles=1, trials=20, seed=7, wigner_points=201),
}
KILL_AFTER_ROWS = 10
# the files an earlier run left in the directory: a CSV, and no other file
EARLIER_FILES = {"run.csv": f"{bench.CSV_HEADER}\n3,8,9,12,8,0,1.0,1.0,1.0\n".encode()}


def _rows_written(directory) -> int:
    """The count of rows in the run's temporary CSV."""
    return (directory / "run.csv.tmp").read_text().count("\n") - 1


def _ready_to_kill(case, directory) -> bool:
    if case == "homodyne-wigner":
        return any(path.name.endswith(".tmp") and "_wigner_" in path.name
                   for path in directory.iterdir())
    return (directory / "run.csv.tmp").exists() and _rows_written(directory) >= KILL_AFTER_ROWS


def _run_files(directory) -> dict:
    """{name: bytes} of every file in a run's directory."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module", params=sorted(KILLED_RUNS))
def uninterrupted_run(request, tmp_path_factory):
    """(case, config path, files) of an uninterrupted 1-worker run."""
    case = request.param
    workdir = tmp_path_factory.mktemp(case)
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(KILLED_RUNS[case]))
    (workdir / "run").mkdir()
    assert cli.main([KILLED_RUNS[case]["experiment"], "--config", str(cfg), "--workers", "1",
                     "--out", str(workdir / "run" / "run.csv")]) == 0
    return case, cfg, _run_files(workdir / "run")


@pytest.mark.parametrize("workers", [1, 2])
def test_killed_run_resumes_to_uninterrupted_bytes(uninterrupted_run, workers, tmp_path):
    # SIGKILL once polling finds KILL_AFTER_ROWS rows in the temporary CSV,
    # or a temporary Wigner file, in a directory that holds an earlier
    # run's CSV: every file under a final name is the earlier run's, or
    # absent.  The same command run again leaves the CSV, .meta.json and
    # Wigner files of the uninterrupted run, and no .tmp file
    case, cfg, expected = uninterrupted_run
    doc = KILLED_RUNS[case]
    run = tmp_path / "run"
    run.mkdir()
    for name, blob in EARLIER_FILES.items():
        (run / name).write_bytes(blob)
    command = [sys.executable, "-m", "tomolin.cli", doc["experiment"], "--config", str(cfg),
               "--workers", str(workers), "--out", str(run / "run.csv")]
    proc = subprocess.Popen(command, env=_cli_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not _ready_to_kill(case, run):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait() == -signal.SIGKILL
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    cells = len(doc["m_values"]) * doc["ensembles"]
    if case == "homodyne-wigner":
        assert _rows_written(run) == 0
    else:
        assert KILL_AFTER_ROWS <= _rows_written(run) < cells
    left = _run_files(run)
    assert {name: blob for name, blob in left.items() if not name.endswith(".tmp")} == EARLIER_FILES
    assert {name for name in left if name.endswith(".tmp")} <= {f"{name}.tmp" for name in expected}
    rerun = subprocess.run(command, env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert rerun.returncode == 0, rerun.stderr
    assert _run_files(run) == expected


# the concurrent-writer repro: a run of 720 rows, about a second long, and
# a five-row run of another seed into the same out while the first writes
CONCURRENT_RUNS = (
    dict(experiment="sweep-probes", d=4, m_values=[16, 18, 20, 24], M_values=[16, 20, 24],
         ensembles=60, seed=1),
    dict(experiment="sweep-probes", d=2, m_values=[4], M_values=[3, 4, 5, 6, 8], ensembles=1,
         trials=20, seed=2),
)


@pytest.mark.skipif(not hasattr(os, "lockf"), reason="runs take no lock without os.lockf")
def test_second_run_into_one_out_refused(tmp_path):
    # the second run exits 1 while the first writes its CSV, and the first
    # leaves the files of a solo run
    configs = []
    for index, doc in enumerate(CONCURRENT_RUNS):
        configs.append(tmp_path / f"cfg{index}.json")
        configs[-1].write_text(json.dumps(doc))
    for name in ("solo", "run"):
        (tmp_path / name).mkdir()
    assert cli.main(["sweep-probes", "--config", str(configs[0]),
                     "--out", str(tmp_path / "solo" / "run.csv")]) == 0
    out = tmp_path / "run" / "run.csv"
    first = subprocess.Popen([sys.executable, "-m", "tomolin.cli", "sweep-probes", "--config",
                              str(configs[0]), "--out", str(out)], env=_cli_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "run" / "run.csv.tmp").exists() or _rows_written(out.parent) < 1:
            assert first.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        second = subprocess.run([sys.executable, "-m", "tomolin.cli", "sweep-probes", "--config",
                                 str(configs[1]), "--out", str(out)], env=_cli_env(),
                                capture_output=True, text=True, timeout=60)
        assert first.wait(timeout=60) == 0, first.stderr.read()
    finally:
        with contextlib.suppress(ProcessLookupError):
            first.kill()
        first.wait()
        first.stderr.close()
    assert (second.returncode, second.stdout, second.stderr) == (
        1, "", f"config error: another run is writing {out}\n")
    assert _run_files(tmp_path / "run") == _run_files(tmp_path / "solo")


def _wigner_exports(directory) -> list:
    """(kind, m) of each reconstructed Wigner grid a homodyne run wrote to
    directory, from the file names <stem>_wigner_<kind>_m<m>.csv."""
    names = (re.fullmatch(r".*_wigner_(standard|pattern)_m(\d+)\.csv", p.name)
             for p in directory.iterdir())
    return [(match[1], int(match[2])) for match in names if match]


class TestRunHomodyne:
    def test_rows_and_wigner_exports(self, tmp_path):
        out = str(tmp_path / "homo.csv")
        cfg = bench.ExperimentConfig(**TINY_HOMODYNE, out=out)
        rows = bench.run_homodyne(cfg)
        assert len(rows) == 4 * 2
        # exports at the minimal augmented point and at m = M
        exports = _wigner_exports(tmp_path)
        assert ("pattern", 16) in exports and ("standard", 40) in exports
        stem = out[:-4]
        for name in ("_wigner_true.csv", "_wigner_pattern_m16.csv", "_wigner_standard_m40.csv"):
            path = stem + name
            assert os.path.exists(path)
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "x,p,w"
            assert len(lines) == 1 + cfg.wigner_points**2
        # true-state grid normalises to one
        truth = np.loadtxt(stem + "_wigner_true.csv", delimiter=",", skiprows=1)
        dx = (2 * bench._WIGNER_SPAN) / (cfg.wigner_points - 1)
        assert truth[:, 2].sum() * dx * dx == pytest.approx(1.0, abs=1e-2)

    def test_coinciding_export_points_computed_once(self, tmp_path, monkeypatch):
        # d = 4 and M = 16 make the minimal point n + 1 equal to M
        calls = []
        mean_estimates = bench._mean_estimates

        def counting(cfg, m):
            calls.append(m)
            return mean_estimates(cfg, m)

        monkeypatch.setattr(bench, "_mean_estimates", counting)
        bench.run_homodyne(bench.ExperimentConfig(
            experiment="homodyne", d=4, m_values=(14, 16), M_values=(16,),
            ensembles=1, trials=10, wigner_points=21, out=str(tmp_path / "homo.csv")))
        exports = _wigner_exports(tmp_path)
        assert calls == [16]
        assert sorted(exports) == [("pattern", 16), ("standard", 16)]

    def test_two_batch_mse_calls_per_cell(self, tmp_path, monkeypatch):
        # the Wigner exports take their estimates without an MSE
        calls = []
        batch_mse = protocols.batch_mse
        monkeypatch.setattr(protocols, "batch_mse",
                            lambda *args: calls.append(args) or batch_mse(*args))
        cfg = bench.ExperimentConfig(**TINY_HOMODYNE, out=str(tmp_path / "homo.csv"))
        bench.run_homodyne(cfg)
        exports = _wigner_exports(tmp_path)
        assert len(exports) == 4
        assert len(calls) == 2 * len(cfg.m_values) * cfg.ensembles

    def test_two_workers_write_the_same_files(self, tmp_path):
        for workers in (1, 2):
            (tmp_path / f"w{workers}").mkdir()
            bench.run_homodyne(bench.ExperimentConfig(
                **TINY_HOMODYNE, out=str(tmp_path / f"w{workers}" / "homo.csv"), workers=workers))
        names = sorted(p.name for p in (tmp_path / "w1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
        for name in names:
            if not name.endswith(".meta.json"):
                assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


class _FailingRows:
    """Grid values that yield two rows, then raise."""

    def __init__(self, values):
        self.values = values

    def __iter__(self):
        yield from self.values[:2]
        raise RuntimeError("interrupted")


def _write_wigner_csv(path, axis, values):
    # bench._wigner_csv through bench._replacing, as a run writes its files
    with bench._replacing(path) as fh:
        bench._wigner_csv(fh, axis, values)


@contextlib.contextmanager
def _locked_by_another_process(path):
    """Hold the lock of path, as a run holds its .tmp files, in a child
    process until the block ends."""
    code = ("import os, sys; fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT); "
            "os.lockf(fd, os.F_LOCK, 0); print('locked', flush=True); sys.stdin.read()")
    with subprocess.Popen([sys.executable, "-c", code, str(path)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as holder:
        try:
            assert holder.stdout.readline() == "locked\n"
            yield
        finally:
            holder.stdin.close()


class TestAtomicWrites:
    def test_interrupted_wigner_export_leaves_no_partial_file(self, tmp_path):
        values = _FailingRows(_true_signal_grid())
        path = tmp_path / "homo_wigner_true.csv"
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_wigner_csv(str(path), _WIGNER_AXIS, values)
        assert os.listdir(tmp_path) == []
        # a file of an earlier run keeps its bytes
        path.write_text("earlier\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_wigner_csv(str(path), _WIGNER_AXIS, values)
        assert os.listdir(tmp_path) == [path.name] and path.read_text() == "earlier\n"

    def test_interrupted_metadata_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # json.dump writes the keys before the unserialisable value
        monkeypatch.setattr(bench, "_metadata", lambda cfg: {"a": 1, "z": object()})
        with pytest.raises(TypeError):
            bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES,
                                                          out=str(tmp_path / "p.csv")))
        assert os.listdir(tmp_path) == []

    def test_failed_run_keeps_earlier_files(self, tmp_path, monkeypatch):
        # a homodyne run that fails in its Wigner export, after its header
        # and the true state's grid were written to .tmp files and before
        # its first row, leaves the files of an earlier run as they were,
        # and no .tmp file; its other grid size moves the true state's file
        cfg = bench.ExperimentConfig(**TINY_HOMODYNE, out=str(tmp_path / "homo.csv"))
        bench.run_homodyne(cfg)
        earlier = _run_files(tmp_path)

        def failing(cfg, m):
            raise FloatingPointError("the estimate overflowed")

        monkeypatch.setattr(bench, "_mean_estimates", failing)
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        with pytest.raises(FloatingPointError):
            bench.run_homodyne(bench.ExperimentConfig(
                **{**TINY_HOMODYNE, "seed": 8, "wigner_points": 21}, out=cfg.out))
        assert _run_files(tmp_path) == earlier

    @pytest.mark.skipif(not hasattr(os, "lockf"), reason="runs take no lock without os.lockf")
    @pytest.mark.parametrize("held", ["homo.csv", "homo.csv.meta.json", "homo_wigner_true.csv"])
    def test_file_another_run_writes_refused(self, tmp_path, capsys, monkeypatch, held):
        # a run whose .tmp file, CSV, .meta.json or Wigner, another process
        # holds exits 1 before any cell, and the earlier run's files and
        # the other process's .tmp keep their bytes
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_HOMODYNE.items()}))
        (tmp_path / "run").mkdir()
        command = ["homodyne", "--config", str(cfg), "--out", str(tmp_path / "run" / "homo.csv")]
        assert cli.main(command) == 0
        tmp = tmp_path / "run" / f"{held}.tmp"
        tmp.write_text("another run's line\n")
        earlier = _run_files(tmp_path / "run")
        capsys.readouterr()
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        with _locked_by_another_process(tmp):
            assert cli.main(command) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: another run is writing {tmp_path / 'run' / held}"]
        assert _run_files(tmp_path / "run") == earlier

    def test_runs_without_lockf_write_the_same_files(self, tmp_path, monkeypatch):
        # where os.lockf is missing, as on Windows, a run takes no lock; the
        # second run here goes without it
        for name in ("locked", "unlocked"):
            (tmp_path / name).mkdir()
            bench.run_sweep_probes(bench.ExperimentConfig(
                **TINY_PROBES, out=str(tmp_path / name / "probes.csv")))
            monkeypatch.delattr(os, "lockf", raising=False)
        assert _run_files(tmp_path / "locked") == _run_files(tmp_path / "unlocked")


def _wigner_csv_whole_grid(path, axis, values):
    # the Wigner CSV writer that turned the whole grid into Python floats at
    # once, kept as the byte reference of bench._wigner_csv
    xs = [f"{x:.12e}" for x in axis.tolist()]
    ps = [f"{p:.12e}" for p in axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,p,w\n")
        for x, row in zip(xs, values.tolist()):
            fh.write("".join(f"{x},{p},{w:.12e}\n" for p, w in zip(ps, row)))


def _traced_peak(fn, *args) -> int:
    """Peak bytes that Python and numpy allocate during fn(*args),
    its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_WIGNER_AXIS = np.linspace(-5.0, 5.0, 201)


def _true_signal_grid() -> np.ndarray:
    return homodyne.wigner(homodyne.true_state(6), _WIGNER_AXIS)


class TestHomodyneRunMemory:
    """Deterministic memory guards of the kernels of a homodyne run."""

    def test_wigner_grid_peak(self):
        assert _traced_peak(_true_signal_grid) < 1.0e6

    def test_wigner_values_own_a_real_buffer(self):
        values = _true_signal_grid()
        assert values.dtype == np.float64 and values.base is None

    def test_bloch_vectors_own_a_real_buffer(self):
        # the probe and signal coordinates are plain float arrays, not the
        # real view of a complex buffer twice their size
        rhos = qstate.random_density_hs(6, np.random.default_rng(8), size=100)
        for rho in (homodyne.true_state(6), rhos):
            r = qstate.state_to_bloch(rho)
            assert r.dtype == np.float64 and r.flags.c_contiguous and r.base is None

    def test_wigner_csv_peak(self, tmp_path):
        grid = _true_signal_grid()
        assert _traced_peak(_write_wigner_csv, str(tmp_path / "w.csv"), _WIGNER_AXIS, grid) < 0.2e6

    @pytest.mark.parametrize("points", [201, 5])
    def test_wigner_csv_bytes_equal_whole_grid_writer(self, tmp_path, points):
        rho = qstate.random_density_hs(6, np.random.default_rng(5))
        axis = np.linspace(-5.0, 5.0, points)
        grid = homodyne.wigner(rho, axis)
        _write_wigner_csv(str(tmp_path / "rows.csv"), axis, grid)
        _wigner_csv_whole_grid(str(tmp_path / "whole.csv"), axis, grid)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_add_noise_peak_on_broadcast_data(self):
        # the homodyne data: one response column repeated over the trials
        p_true = np.random.default_rng(6).random(130)
        repeated = np.broadcast_to(p_true[:, None], (130, 500))
        peak = _traced_peak(protocols.add_noise, repeated, 0.06, np.random.default_rng(7))
        assert peak < 1.2 * repeated.size * repeated.itemsize

    def test_full_scale_cell_peak(self):
        # the inversions are built before the 520 kB (m, trials) data are
        # drawn, and the MSE squares the errors in place
        cfg = bench.ExperimentConfig(**{**bench.FULL_SCALE_HOMODYNE, "ensembles": 1},
                                     experiment="homodyne")
        bench._task(cfg, 30)  # fills the caches of a d = 6 run
        assert _traced_peak(bench._task, cfg, 130) < 0.9e6

    def test_run_peak_with_wigner_exports(self, tmp_path):
        # four reconstructed 201 x 201 grids and the true one, each written
        # before the next is computed
        cfg = bench.ExperimentConfig(experiment="homodyne", d=6, M_values=(100,),
                                     m_values=(36, 100), ensembles=1, trials=20,
                                     out=str(tmp_path / "homo.csv"))
        bench._task(cfg, 36)  # fills the caches of a d = 6 run
        assert _traced_peak(bench.run_homodyne, cfg) < 1.0e6
        assert len(_wigner_exports(tmp_path)) == 4

    def test_run_without_out_computes_no_wigner_grid(self, tmp_path, monkeypatch):
        calls = []
        wigner = homodyne.wigner
        monkeypatch.setattr(homodyne, "wigner",
                            lambda *args: calls.append(args) or wigner(*args))
        monkeypatch.chdir(tmp_path)
        rows = bench.run_homodyne(bench.ExperimentConfig(**TINY_HOMODYNE))
        assert len(rows) == 4 * 2
        assert calls == [] and os.listdir(tmp_path) == []


class TestSelfTest:
    def test_default_passes(self):
        checks = selftest.run_selftest(bench.ExperimentConfig(experiment="selftest", selftest_count=40))
        assert all(worst <= tol for *_, worst, tol in checks)
        lines = selftest.format_lines(checks)
        assert any("matlib" in line for line in lines)
        assert lines[-1] == "selftest: PASS"

    def test_reports_counts_per_suite(self):
        checks = selftest.run_selftest(bench.ExperimentConfig(experiment="selftest", selftest_count=40))
        summary = [l for l in selftest.format_lines(checks) if "checks passed" in l]
        assert len(summary) == 3

    def test_format_lines_reports_failures(self):
        checks = (("b", "ok", 4, 1e-12, 1e-9),
                  ("a", "bad", 3, 2.5e-3, 1e-9),
                  ("a", "slack", 10, -0.25, 1e-10))
        assert selftest.format_lines(checks) == [
            "[pass] b/ok: 4 cases, worst 1.000e-12 (tol 1.0e-09)",
            "[FAIL] a/bad: 3 cases, worst 2.500e-03 (tol 1.0e-09)",
            "[pass] a/slack: 10 cases, worst -2.500e-01 (tol 1.0e-10)",
            "a: 1/2 checks passed",
            "b: 1/1 checks passed",
            "selftest: FAIL",
        ]

    def test_refuses_another_experiments_config(self):
        with pytest.raises(bench.ConfigError, match="experiment"):
            selftest.run_selftest(bench.ExperimentConfig(experiment="homodyne", d=6,
                                                         M_values=(100,)))

    @pytest.mark.parametrize("name, residual, failed", [
        ("penrose_check", lambda x, xp: np.full(4, np.nan), ["penrose-c1-c4"]),
        ("reverse_order_residual", lambda x, y: np.nan,
         ["reverse-order-valid-cases", "reverse-order-negative-control"]),
    ], ids=["penrose", "reverse-order"])
    def test_nan_residual_fails_its_check(self, monkeypatch, name, residual, failed):
        # a NaN residual must not be dropped by the running worst, nor pass
        # the negative control as NaN
        monkeypatch.setattr(matlib, name, residual)
        checks = selftest.run_selftest(bench.ExperimentConfig(experiment="selftest",
                                                              selftest_count=2))
        assert [check for _, check, _, worst, tol in checks if not worst <= tol] == failed
        assert selftest.format_lines(checks)[-1] == "selftest: FAIL"

    def test_report_and_exit_code_take_one_verdict(self, monkeypatch, capsys):
        # a verdict that fails every check reaches the report and the exit code
        monkeypatch.setattr(selftest, "passed", lambda check: False)
        monkeypatch.setattr(selftest, "run_selftest", lambda cfg: (("a", "ok", 1, 0.0, 1e-9),))
        assert cli.main(["selftest"]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] a/ok: 1 cases, worst 0.000e+00 (tol 1.0e-09)", "a: 0/1 checks passed",
            "selftest: FAIL"]

    def test_corrupted_pinv_tolerance_fails(self):
        with oracles.pinv_cutoff(0.5):
            checks = selftest.run_selftest(
                bench.ExperimentConfig(experiment="selftest", selftest_count=20))
        failed = [name for _, name, _, worst, tol in checks if not worst <= tol]
        assert "penrose-c1-c4" in failed


class TestCli:
    def test_selftest_exit_codes(self, capsys):
        assert cli.main(["selftest"]) in (0,)  # default must pass
        out = capsys.readouterr().out
        assert "selftest: PASS" in out

    def test_selftest_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "selftest", "selftest_count": 20}))
        with oracles.pinv_cutoff(0.5):
            assert cli.main(["selftest", "--config", str(cfg)]) == 3

    def test_selftest_overflow_fails_without_warnings(self, capsys):
        # a cutoff of 1e-300 keeps singular values of rounding, whose
        # inverses overflow in the residual norms
        with warnings.catch_warnings(record=True) as caught, oracles.pinv_cutoff(1e-300):
            warnings.simplefilter("always")
            assert cli.main(["selftest"]) == 3
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "selftest: FAIL" and captured.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["sweep-probes", "--bogus"], "unrecognized arguments: --bogus"),
        (["sweep-probes", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        # a selftest writes no file and starts no worker pool
        (["selftest", "--out", "x.csv"], "unrecognized arguments: --out x.csv"),
        (["selftest", "--workers", "2"], "unrecognized arguments: --workers 2"),
    ], ids=["unknown-flag", "non-integer-seed", "no-subcommand", "selftest-out",
            "selftest-workers"])
    def test_usage_error_exit_code(self, tmp_path, monkeypatch, capsys, argv, message):
        # usage errors are config errors: exit 2 is left to numerical failures
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"config error: {message}"]
        assert os.listdir(tmp_path) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep-probes", "-h"])
        assert exc.value.code == 0 and "--workers" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"experiment": "sweep-probes", "d": 1}))
        assert cli.main(["sweep-probes", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        dict(experiment="sweep-probes", d=4, m_values=[3, 18], M_values=[20]),
        dict(experiment="sweep-outcomes", d=3, m_values=[2, 4], M_values=[6]),
        dict(experiment="homodyne", d=2, m_values=[4], M_values=[4]),
        dict(experiment="sweep-probes", m_values=5),
        dict(experiment="sweep-probes", m_values=[18, 18]),
        dict(experiment="sweep-probes", M_values=[4, 4]),
        dict(experiment="sweep-probes", seed=1.5),
        dict(experiment="sweep-probes", m_values=[18.7]),
        dict(experiment="sweep-probes", ensembles=True),
        dict(experiment="sweep-probes", d="4"),
        dict(experiment="homodyne", eta="0.5"),
        dict(experiment="sweep-probes", noise_ratio_data="0.1"),
        dict(experiment="homodyne", wigner_points=0),
        dict(experiment="selftest", selftest_count=0),
    ], ids=["probes-m-below-d", "outcomes-m-below-d", "homodyne-d-below-3", "m-values-scalar",
            "m-values-repeated", "M-values-repeated", "seed-float", "m-values-float",
            "ensembles-bool", "d-string", "eta-string", "noise-ratio-string",
            "wigner-points-zero", "selftest-count-zero"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "malformed.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_config_that_sets_rtol_refused(self, tmp_path, capsys):
        # the rank cutoff is matlib's, not a config field
        cfg = tmp_path / "cutoff.json"
        cfg.write_text(json.dumps({"experiment": "sweep-probes", "rtol": 0.5}))
        assert cli.main(["sweep-probes", "--config", str(cfg),
                         "--out", str(tmp_path / "run.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["config error: unknown config keys: ['rtol']"]
        assert os.listdir(tmp_path) == ["cutoff.json"]

    def test_homodyne_out_without_csv_refused(self, tmp_path, monkeypatch, capsys):
        # res and res.csv would both name their Wigner files res_wigner_*
        monkeypatch.chdir(tmp_path)
        assert cli.main(["homodyne", "--out", "res"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "config error: homodyne out must end in .csv, got 'res'"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, name, value", [
        pytest.param("homodyne", "x_max", 3.0, id="x_max-3.0"),
        pytest.param("homodyne", "wigner_span", 5.0, id="wigner_span-5.0"),
        pytest.param("homodyne", "wigner_export_m", [16], id="wigner_export_m-value2"),
        pytest.param("sweep-probes", "state_ensemble", "pure", id="state_ensemble-pure"),
    ])
    def test_config_that_sets_a_homodyne_constant_refused(self, tmp_path, capsys, command, name,
                                                          value):
        # the quadrature window is homodyne.X_MAX, and a run exports its
        # Wigner grids over a fixed span at n + 1 and M; a sweep's probes
        # are Hilbert-Schmidt: none is a field
        cfg = tmp_path / "window.json"
        cfg.write_text(json.dumps({"experiment": command, name: value}))
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "run.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: unknown config keys: ['{name}']"]
        assert os.listdir(tmp_path) == ["window.json"]

    @pytest.mark.parametrize("command, doc", [
        ("homodyne", dict(noise_ratio_patterns=1e308)),
        ("sweep-probes", dict(d=2, m_values=[2], M_values=[3], trials=1, seed=0,
                              noise_ratio_patterns=1e308)),
    ], ids=["homodyne-noise", "sweep-probes-noise"])
    def test_overflowing_config_ends_in_one_line(self, tmp_path, command, doc):
        # under -W error a warning would end in a traceback: each run ends
        # in exit 2 and one stderr line, and leaves no file, .tmp files
        # included
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(dict(m_values=[12], ensembles=1, trials=5), **doc)))
        run = (f"import sys, tomolin.cli; sys.exit(tomolin.cli.main([{command!r}, '--config', "
               f"{str(cfg)!r}, '--out', {str(tmp_path / 'run.csv')!r}]))")
        result = subprocess.run([sys.executable, "-W", "error", "-c", run], env=_cli_env(),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith(
            "numerical failure: the calibration F R+ overflowed")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_worker_crash_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "_task", _exit_in_worker)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "run.csv"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--workers", "2",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "worker process failed" in err and "numerical failure" not in err
        assert os.listdir(tmp_path) == ["tiny.json"]

    @pytest.mark.parametrize("doc", [
        dict(experiment="sweep-outcomes", d=2, m_values=[4], M_values=[6], ensembles=1,
             trials=20, noise_ratio_data=1e308),
        dict(experiment="sweep-probes", d=2, m_values=[2], M_values=[60], ensembles=1,
             trials=5, seed=3, noise_ratio_patterns=1e308),
    ], ids=["infinite-mse", "overflowed-patterns"])
    def test_non_finite_values_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run.csv"
        assert cli.main([doc["experiment"], "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert os.listdir(tmp_path) == ["overflow.json"]

    def test_non_finite_wigner_grid_exit_code(self, tmp_path, capsys, monkeypatch):
        # only a reconstructed grid, the second one, is not finite: it is
        # refused before the first cell, so no file is left
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        calls = []
        wigner = homodyne.wigner

        def nan_in_second_grid(rho, axis):
            calls.append(rho)
            values = wigner(rho, axis)
            if len(calls) == 2:
                values[0, 0] = np.nan
            return values

        monkeypatch.setattr(homodyne, "wigner", nan_in_second_grid)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(dict(experiment="homodyne", d=3, m_values=[9], M_values=[9],
                                       ensembles=1, trials=10, wigner_points=2)))
        assert cli.main(["homodyne", "--config", str(cfg),
                         "--out", str(tmp_path / "run.csv")]) == 2
        assert len(calls) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure: the Wigner grid of {tmp_path / 'run'}_wigner_standard_m9.csv "
            "is not finite"]
        assert os.listdir(tmp_path) == ["tiny.json"]

    @pytest.mark.parametrize("name", ["true", "pattern_m40"])
    def test_wigner_path_that_is_a_directory_refused_before_any_cell(self, tmp_path, capsys,
                                                                    monkeypatch, name):
        # a Wigner file name that is a directory fails the run when the file
        # is opened, in the export before the first cell, and the earlier
        # run's files stay as they were
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_HOMODYNE.items()}))
        (tmp_path / "run").mkdir()
        out = tmp_path / "run" / "homo.csv"
        assert cli.main(["homodyne", "--config", str(cfg), "--out", str(out)]) == 0
        blocked = tmp_path / "run" / f"homo_wigner_{name}.csv"
        blocked.unlink()
        blocked.mkdir()
        earlier = {p.name: p.is_dir() or p.read_bytes() for p in (tmp_path / "run").iterdir()}
        capsys.readouterr()
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        assert cli.main(["homodyne", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"output error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{blocked}'"]
        assert {p.name: p.is_dir() or p.read_bytes()
                for p in (tmp_path / "run").iterdir()} == earlier

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(qstate, "random_density_hs", exhausted)
        out = tmp_path / "run.csv"
        assert cli.main(["sweep-outcomes", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "out of memory: Unable to allocate 596. GiB for an array"]
        assert os.listdir(tmp_path) == []

    def test_svd_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        assert cli.main(["sweep-probes", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: SVD did not converge for")

    @pytest.mark.parametrize("writer", ["_wigner_csv", "_write_rows"], ids=["wigner", "rows"])
    def test_output_error_exit_code(self, tmp_path, capsys, monkeypatch, writer):
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(bench, writer, full_disk)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_HOMODYNE.items()}))
        out = tmp_path / "homo.csv"
        assert cli.main(["homodyne", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert os.listdir(tmp_path) == ["tiny.json"]

    def test_sweep_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "cli.csv"
        code = cli.main(["sweep-probes", "--config", str(cfg),
                         "--out", str(out), "--seed", "9", "--workers", "1"])
        assert code == 0
        rows = read_rows(str(out))
        assert all(row[4] == "9" for row in rows)

    @pytest.mark.parametrize("rerun", [["sweep-probes", "--seed", "8"], ["sweep-outcomes"]])
    def test_rerun_with_other_config_replaces_both_files(self, tmp_path, capsys, rerun):
        # one M value, so the same document is valid for both sweeps: the
        # rerun's CSV and .meta.json are those it writes into an empty
        # directory
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(dict(experiment="sweep-probes", d=2, m_values=[6],
                                       M_values=[6], ensembles=2, trials=20, seed=7)))
        for directory in ("rerun", "fresh"):
            (tmp_path / directory).mkdir()
        rerun_out = str(tmp_path / "rerun" / "probes.csv")
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", rerun_out]) == 0
        assert cli.main([*rerun, "--config", str(cfg), "--out", rerun_out]) == 0
        assert cli.main([*rerun, "--config", str(cfg),
                         "--out", str(tmp_path / "fresh" / "probes.csv")]) == 0
        assert _run_files(tmp_path / "rerun") == _run_files(tmp_path / "fresh")

    @pytest.mark.parametrize("foreign", [
        "a,b,c,d,e,f,g,h,i\n2,3,6,6,7,0,1.0,1.0,1.0\n",
        f"{bench.CSV_HEADER}\r\n",
        f"{bench.CSV_HEADER},extra\n",
        "not a CSV of this run",
    ], ids=["other-header", "crlf-header", "longer-header", "without-newline"])
    def test_foreign_out_refused_untouched(self, tmp_path, capsys, monkeypatch, foreign):
        # only a file that begins as a run's CSV, or is a cut of its header
        # line, is replaced
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        out = tmp_path / "other.csv"
        out.write_bytes(foreign.encode())
        assert cli.main(["sweep-probes", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot replace {out}: it does not begin with {bench.CSV_HEADER}"]
        assert _run_files(tmp_path) == {"other.csv": foreign.encode()}

    def test_rerun_on_other_worker_count_gives_same_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out),
                         "--workers", "1"]) == 0
        before = _run_files(tmp_path)
        capsys.readouterr()
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out),
                         "--workers", "2"]) == 0
        assert capsys.readouterr().out == f"9 rows written to {out}\n"
        assert _run_files(tmp_path) == before

    def test_import_does_not_load_scipy(self):
        # scipy is a test dependency only; no runtime module imports it
        code = "import sys, tomolin.cli; print('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"

    def test_homodyne_run_with_wigner_exports_does_not_load_scipy(self, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(dict(d=3, m_values=[9, 12], M_values=[12], ensembles=1,
                                       trials=10, wigner_points=11)))
        out = tmp_path / "homo.csv"
        code = ("import sys, tomolin.cli; "
                f"code = tomolin.cli.main(['homodyne', '--config', {str(cfg)!r}, "
                f"'--out', {str(out)!r}]); "
                "print(code, 'scipy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "homo_wigner_pattern_m9.csv").exists()
        assert (tmp_path / "homo_wigner_standard_m12.csv").exists()

    def test_one_worker_runs_do_not_load_multiprocessing(self, tmp_path):
        # the pool machinery is imported only where a pool is built
        outcomes = tmp_path / "outcomes.json"
        outcomes.write_text(json.dumps(dict(d=2, m_values=[3, 4], M_values=[6], ensembles=2,
                                            trials=20)))
        homodyne_cfg = tmp_path / "homodyne.json"
        homodyne_cfg.write_text(json.dumps(dict(d=3, m_values=[9, 12], M_values=[12],
                                                ensembles=1, trials=10, wigner_points=11)))
        code = ("import sys, tomolin.cli; "
                f"a = tomolin.cli.main(['sweep-outcomes', '--config', {str(outcomes)!r}, "
                "'--workers', '1']); "
                f"b = tomolin.cli.main(['homodyne', '--config', {str(homodyne_cfg)!r}, "
                f"'--workers', '1', '--out', {str(tmp_path / 'homo.csv')!r}]); "
                "print(a, b, sorted({'concurrent.futures.process', 'multiprocessing'} "
                "& set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.splitlines()[-1] == "0 0 []"
        assert (tmp_path / "homo_wigner_true.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_do_not_load_openssl(self, tmp_path, workers):
        # numpy.random is imported with OpenSSL's _hashlib blocked; hashlib
        # and OS entropy still work in the same process afterwards
        outcomes = tmp_path / "outcomes.json"
        outcomes.write_text(json.dumps(dict(d=2, m_values=[3, 4], M_values=[6], ensembles=2,
                                            trials=20)))
        homodyne_cfg = tmp_path / "homodyne.json"
        homodyne_cfg.write_text(json.dumps(dict(d=3, m_values=[9, 12], M_values=[12],
                                                ensembles=1, trials=10, wigner_points=11)))
        code = f"""
import json, sys, tomolin.cli
codes = [tomolin.cli.main(["sweep-outcomes", "--config", {str(outcomes)!r},
                           "--workers", "{workers}"]),
         tomolin.cli.main(["homodyne", "--config", {str(homodyne_cfg)!r}, "--workers",
                           "{workers}", "--out", {str(tmp_path / "homo.csv")!r}])]
hashlib_loaded = "_hashlib" in sys.modules
maps = open("/proc/self/maps").read() if sys.platform.startswith("linux") else ""
ssl = sorted({{line.split()[-1] for line in maps.splitlines()
               if "libcrypto" in line or "libssl" in line}})
import hashlib
import numpy as np
print(json.dumps(dict(codes=codes, hashlib_loaded=hashlib_loaded, ssl=ssl,
                      sha256=hashlib.sha256(b"tomolin").hexdigest(),
                      entropy=np.random.SeedSequence().entropy.bit_length())))
"""
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0]
        assert not report["hashlib_loaded"]
        assert report["ssl"] == []
        assert report["sha256"] == ("ac9d9d53cc470633a89a2af798f0a4026d3baafc2819994f"
                                    "b3f71cf807037f86")
        assert report["entropy"] > 64

    def test_numpy_random_import_leaves_loaded_hashlib_alone(self):
        # with _hashlib loaded first, the CLI imports nothing itself, and a
        # later hashlib import gets the OpenSSL digests as usual
        code = ("import hashlib, sys, tomolin.cli; before = sys.modules['hashlib']; "
                "tomolin.cli._import_numpy_random_without_openssl(); "
                "print(sys.modules['hashlib'] is before, 'numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.split() == ["True", "False"]
        code = ("import sys, tomolin.cli; tomolin.cli._import_numpy_random_without_openssl(); "
                "print(sorted({'_hashlib', 'hashlib', 'hmac'} & set(sys.modules)), "
                "'numpy.random' in sys.modules, end=' '); "
                "import hashlib; print('_hashlib' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == "[] True True"

    def test_runtime_imports_are_stdlib_and_dependencies(self):
        # every import of src/tomolin is the standard library, the package
        # itself or a runtime dependency declared in pyproject.toml
        tomllib = pytest.importorskip("tomllib")
        src = os.path.dirname(cli.__file__)
        with open(os.path.join(src, os.pardir, os.pardir, "pyproject.toml"), "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        allowed = set(sys.stdlib_module_names) | {
            re.match(r"[\w.-]+", dep).group() for dep in deps}
        assert allowed - set(sys.stdlib_module_names) == {"numpy"}
        found = set()
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name), "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
        assert found - allowed == set()

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # a row of this run moves in its last digit between 1 and 2 OpenBLAS
        # threads unless the CLI pins BLAS to one thread
        cfg = tmp_path / "repro.json"
        cfg.write_text(json.dumps({"d": 6, "M_values": [100], "m_values": [122],
                                   "ensembles": 17, "trials": 20}))
        outputs = set()
        for threads in ("1", "2"):
            for workers in ("1", "2"):
                out = tmp_path / f"t{threads}_w{workers}.csv"
                subprocess.run([sys.executable, "-m", "tomolin.cli", "homodyne",
                                "--config", str(cfg), "--workers", workers, "--out", str(out)],
                               env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, timeout=120, check=True)
                outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_run_layer_bytes_independent_of_blas_threads(self):
        # bench.run_homodyne called from Python, not through the CLI: one row
        # of this config moves in its last digit between 1 and 2 OpenBLAS
        # threads unless the run pins BLAS itself
        code = ("from tomolin import bench; "
                "rows = bench.run_homodyne(bench.ExperimentConfig(experiment='homodyne', "
                "d=6, M_values=(100,), m_values=(122,), ensembles=17, trials=20)); "
                "print('\\n'.join(map(repr, rows)))")
        outputs = {}
        for threads in ("1", "2"):
            outputs[threads] = subprocess.run(
                [sys.executable, "-c", code], env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120, check=True).stdout
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("command, doc, grid", [
        ("homodyne", {"seed": 3}, dict(m_values=list(range(12, 49)), M_values=[40])),
        ("sweep-outcomes", {"seed": 3}, dict(m_values=list(range(16, 61, 4)), M_values=[30])),
        ("sweep-probes", {"experiment": "homodyne"},
         dict(m_values=[18, 20, 24], M_values=[18, 20, 22, 24, 30, 60])),
    ])
    def test_config_file_takes_subcommand_grid(self, tmp_path, command, doc, grid):
        # grid keys the file leaves out come from the subcommand, which
        # also overrides the file's experiment
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = cli._load_config(cli._build_parser().parse_args([command, "--config", str(path)]))
        assert cfg.experiment == command
        assert (list(cfg.m_values), list(cfg.M_values)) == (grid["m_values"], grid["M_values"])

    @pytest.mark.parametrize("out", ["missing/probes.csv", "a-directory", "record.csv"])
    def test_unusable_out_refused(self, tmp_path, capsys, monkeypatch, out):
        # refused before the first cell; record.csv's .meta.json is a directory
        monkeypatch.setattr(bench, "_task", _unexpected_task)
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "record.csv.meta.json").mkdir()
        assert cli.main(["sweep-probes", "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot use output {tmp_path / out}")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory", "record.csv.meta.json"]

    def test_empty_out_refused_before_any_file(self, tmp_path, capsys, monkeypatch):
        # "" + ".meta.json" names a file in the working directory
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep-probes", "--out", ""]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: out must be"), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cut", [0, len("d,n,m"), len(bench.CSV_HEADER)])
    def test_rerun_over_run_cut_inside_its_header(self, tmp_path, capsys, cut):
        # a CSV cut while its header line was written is replaced by the
        # uninterrupted bytes
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        full = _run_files(tmp_path)
        os.truncate(out, cut)
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        assert _run_files(tmp_path) == full

    def test_rerun_replaces_edited_rows(self, tmp_path):
        # the rows of a run's CSV, with e2_std and the ratio of one row
        # doubled together, are computed again, not kept
        out = tmp_path / "probes.csv"
        cfg = bench.ExperimentConfig(**TINY_PROBES, out=str(out))
        bench.run_sweep_probes(cfg)
        full = out.read_bytes()
        lines = full.decode().splitlines(keepends=True)
        row = lines[2].split(",")
        row[6], row[8] = (f"{2 * float(row[i]):.12e}" for i in (6, 8))
        out.write_text("".join([*lines[:2], ",".join(row) + "\n", *lines[3:]]))
        assert out.read_bytes() != full
        bench.run_sweep_probes(cfg)
        assert out.read_bytes() == full

    def test_all_degenerate_estimates_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(protocols, "LEAD_FLOOR", np.inf)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        assert cli.main(["sweep-probes", "--config", str(cfg)]) == 2
        assert "numerical failure:" in capsys.readouterr().err

    def test_full_scale_flag_changes_defaults(self):
        args = cli._build_parser().parse_args(["homodyne", "--full-scale"])
        cfg = cli._load_config(args)
        assert cfg.d == 6 and cfg.M_values == (100,)
