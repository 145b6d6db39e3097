"""Tests for the experiment runner: configuration, CSV output, seeding
determinism, resumability, the selftest and the CLI."""

import ast
import concurrent.futures
import contextlib
import errno
import importlib
import inspect
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
import tracemalloc

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
        dict(state_ensemble="bures"),
        dict(eta=1.5),
        dict(experiment="sweep-outcomes", M_values=(10, 20)),
    ])
    def test_validation_rejects(self, overrides):
        from dataclasses import replace
        with pytest.raises(bench.ConfigError):
            replace(bench.ExperimentConfig(), **overrides)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(bench.ConfigError, match="unknown config keys"):
            bench.ExperimentConfig.from_dict({"probes": 10})

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

    def test_deterministic_across_worker_counts(self, tmp_path):
        out1 = str(tmp_path / "w1.csv")
        out2 = str(tmp_path / "w2.csv")
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out1, workers=1))
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out2, workers=2))
        with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
            assert fh1.read() == fh2.read()

    def test_resume_skips_completed_rows(self, tmp_path):
        out_full = str(tmp_path / "full.csv")
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out_full))
        with open(out_full, "r", encoding="utf-8") as fh:
            full = fh.read().splitlines()
        # keep header and the first four rows, then either a clean end or
        # an interrupted fifth row cut short in its last field
        for tail in ("", full[5][:-3]):
            out_part = str(tmp_path / "part.csv")
            with open(out_part, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(full[:5]) + "\n" + tail)
            rows = bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out_part))
            assert len(rows) == len(full) - 5  # only the missing rows were produced
            with open(out_part, "r", encoding="utf-8") as fh:
                resumed = fh.read().splitlines()
            assert sorted(resumed) == sorted(full)

    def test_rows_regenerable_in_isolation(self, tmp_path):
        cfg = bench.ExperimentConfig(**TINY_PROBES)
        rows = bench.run_sweep_probes(cfg)
        target = rows[4]
        again = bench._task(cfg, target.m, target.ensemble)
        match = [r for r in again if r.M == target.M][0]
        assert match == target

    def test_pattern_resonance_at_equal_counts(self):
        # at m = M the pattern fit inverts a square, noise-limited matrix
        # and the data-pattern protocol loses badly
        rows = bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES))
        resonant = [r.ratio for r in rows if r.M == 6]
        assert np.mean(resonant) < 1.0

    def test_zero_noise_everywhere_hits_numerical_floor(self):
        cfg = bench.ExperimentConfig(**{**TINY_PROBES, "M_values": (8,)},
                                     noise_ratio_patterns=0.0, noise_ratio_data=0.0)
        rows = bench.run_sweep_probes(cfg)
        assert all(r.e2_std < 1e-16 and r.e2_pat < 1e-16 for r in rows)


class TestSweepOutcomes:
    def test_runs_and_orders_rows(self, tmp_path):
        out = str(tmp_path / "outcomes.csv")
        rows = bench.run_sweep_outcomes(bench.ExperimentConfig(**TINY_OUTCOMES, out=out))
        assert len(rows) == 3 * 2
        ms = [r.m for r in rows]
        assert ms == sorted(ms)
        assert all(r.M == 6 for r in rows)

    def test_probe_stream_shared_across_m(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES)
        basis_rows = {}
        for m in cfg.m_values:
            rows = bench._task(cfg, m, 1)
            basis_rows[m] = rows[0]
        # distinct m cells exist and come from the same probe draw; the
        # derivation key for probes ignores m, so this must not raise
        assert len({r.m for r in basis_rows.values()}) == 3

    def test_shared_probes_give_cellwise_rows(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        assert bench.run_sweep_outcomes(cfg) == cellwise_outcome_rows(cfg)

    def test_probe_pinv_once_per_ensemble(self, monkeypatch):
        calls = []
        pinv = matlib.pinv
        monkeypatch.setattr(matlib, "pinv",
                            lambda x, rtol=None: calls.append(x) or pinv(x, rtol=rtol))
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        bench.run_sweep_outcomes(cfg)
        # R+ once per ensemble, (F R+)+ and F+ once per cell
        assert len(calls) == cfg.ensembles + 2 * len(cfg.m_values) * cfg.ensembles

    def test_resume_missing_ensembles(self, tmp_path):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        expected = csv_lines(cellwise_outcome_rows(cfg))
        # ensemble 1 is missing at every m and ensemble 2 at the first m,
        # so the resumed run meets some probe sets first at a later m
        keys = [(line.split(",")[2], line.split(",")[5]) for line in expected[1:]]
        kept = [line for line, (m, e) in zip(expected[1:], keys)
                if e != "1" and (m, e) != ("16", "2")]
        out = tmp_path / "part.csv"
        out.write_text("\n".join([expected[0], *kept]) + "\n")
        rows = bench.run_sweep_outcomes(bench.ExperimentConfig(**TINY_OUTCOMES_D4, out=str(out)))
        assert len(rows) == len(expected) - 1 - len(kept)
        assert sorted(out.read_text().splitlines()) == sorted(expected)

    def test_two_workers_give_cellwise_rows(self, tmp_path):
        out = tmp_path / "w2.csv"
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4, out=str(out), workers=2)
        bench.run_sweep_outcomes(cfg)
        assert out.read_text().splitlines() == csv_lines(cellwise_outcome_rows(cfg))

    def test_run_after_other_seed_draws_its_own_probes(self):
        cfg = bench.ExperimentConfig(**TINY_OUTCOMES_D4)
        other = bench.run_sweep_outcomes(bench.ExperimentConfig(**{**TINY_OUTCOMES_D4, "seed": 8}))
        rows = bench.run_sweep_outcomes(cfg)
        assert rows == cellwise_outcome_rows(cfg)
        assert all(a.e2_std != b.e2_std for a, b in zip(rows, other))


def cellwise_outcome_rows(cfg):
    """The rows of an outcome sweep, each cell run on its own with its probe
    set drawn afresh."""
    rows = []
    for m in cfg.m_values:
        for e in range(cfg.ensembles):
            bench._outcome_probes.cache_clear()
            rows.extend(bench._task(cfg, m, e))
    return rows


def csv_lines(rows):
    return [bench.CSV_HEADER, *(row.csv_row() for row in rows)]


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
        again = [bench.SweepResult(cfg.d, cfg.n_params, m, cell.M, cfg.seed, e,
                                   *(protocols.batch_mse(inv, cell.data, cell.truth)
                                     for inv in cell.invs))
                 for m, e, cell in oracles.keyed_cells(cfg)]
        # exact float equality: the same bits
        assert sorted(again, key=lambda r: (r.m, r.M, r.ensemble)) == rows

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
        ({**TINY_PROBES, "state_ensemble": "bures"}, 6),
    ], ids=["m-below-d", "homodyne-qubit", "negative-noise", "unknown-ensemble"])
    def test_cells_refuse_an_invalid_config(self, doc, m):
        # a run refuses these configs, so the cells of a run refuse them too
        with pytest.raises(bench.ConfigError):
            bench.cells(bench.ExperimentConfig(**doc), m, 0)

    def test_selftest_config_has_no_cells(self):
        with pytest.raises(bench.ConfigError, match="no cells"):
            bench.cells(bench.ExperimentConfig(experiment="selftest"), 4, 0)


def _with_field(line, index, value):
    """A CSV line, newline kept, with one field replaced."""
    parts = line.rstrip("\n").split(",")
    parts[index] = value
    return ",".join(parts) + "\n"


# edits of the lines of a finished TINY_PROBES CSV that a resume refuses;
# each leaves every line complete
MALFORMED_CSV_EDITS = {
    "non-integer-key": lambda lines: [*lines[:2], _with_field(lines[2], 3, "x")],
    "garbage-line": lambda lines: [*lines[:2], "garbage,line\n", *lines[2:]],
    "blank-line": lambda lines: [*lines[:2], "\n", *lines[2:]],
    "eight-fields": lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0] + "\n", *lines[3:]],
    "ten-fields": lambda lines: [*lines[:2], lines[2][:-1] + ",1.0\n", *lines[3:]],
    "non-float-value": lambda lines: [*lines[:2], _with_field(lines[2], 6, "x"), *lines[3:]],
    "float-key": lambda lines: [*lines[:2], _with_field(lines[2], 5, "1.0"), *lines[3:]],
    "repeated-row": lambda lines: [*lines, lines[1]],
    "repeated-key": lambda lines: [*lines, _with_field(lines[1], 6, "1.0")],
    "nan-mse": lambda lines: [*lines[:2], _with_field(lines[2], 6, "nan"), *lines[3:]],
    "infinite-mse": lambda lines: [*lines[:2], _with_field(lines[2], 7, "inf"), *lines[3:]],
    "negative-mse": lambda lines: [*lines[:2], _with_field(lines[2], 7, "-1.0e-03"), *lines[3:]],
    "nan-and-minus-infinite-mse": lambda lines: [
        lines[0], _with_field(_with_field(lines[1], 6, "nan"), 7, "-inf"), *lines[2:-1]],
    "nan-ratio": lambda lines: [*lines[:2], _with_field(lines[2], 8, "nan"), *lines[3:]],
    "negative-ratio": lambda lines: [*lines[:2], _with_field(lines[2], 8, "-2.0"), *lines[3:]],
}


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


def test_every_public_definition_is_used_in_the_package():
    # a public module-level function or class must be named somewhere in
    # src/tomolin beyond its definition and __all__, whose entries are
    # strings, not names
    trees = {}
    for info in pkgutil.iter_modules(tomolin.__path__):
        with open(importlib.import_module(f"tomolin.{info.name}").__file__,
                  "r", encoding="utf-8") as fh:
            trees[info.name] = ast.parse(fh.read())
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


def _exit_in_worker(cfg, m, ensemble):
    os._exit(1)


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

    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        # a forked pool starts all of its workers at the first submit; the
        # stand-in pool records its size and maps in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        rows = bench.run_sweep_outcomes(bench.ExperimentConfig(**TINY_OUTCOMES, workers=5000))
        cells = len(TINY_OUTCOMES["m_values"]) * TINY_OUTCOMES["ensembles"]
        assert sizes == [cells] and len(rows) == cells

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

    def test_blas_pinned_during_run_and_restored(self, monkeypatch):
        blas = bench._bundled_openblas()
        if blas is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get_threads, set_threads = blas
        inside = []
        task = bench._task

        def recording(cfg, m, ensemble):
            inside.append(get_threads())
            return task(cfg, m, ensemble)

        monkeypatch.setattr(bench, "_task", recording)
        previous = get_threads()
        set_threads(2)
        try:
            bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES))
            after = get_threads()
        finally:
            set_threads(previous)
        assert inside == [1] * TINY_PROBES["ensembles"] and after == 2

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

    def test_resumed_run_with_nothing_to_do_builds_no_pool(self, tmp_path, monkeypatch):
        out = str(tmp_path / "probes.csv")
        bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES, out=out,
                                                             workers=2)) == []


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
    proc = subprocess.Popen([sys.executable, "-m", "tomolin.cli", "sweep-outcomes", "--config",
                             str(cfg), "--workers", "2", "--out", str(out)],
                            env=_cli_env(), start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not (out.exists() and out.read_text().count("\n") > 1):
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
# temporary Wigner file exists: two cells, and five 201 x 201 grids
KILLED_RUNS = {
    "sweep-outcomes": dict(experiment="sweep-outcomes", d=3, m_values=list(range(9, 109)),
                           M_values=[12], ensembles=2, trials=100, seed=7),
    "homodyne": dict(experiment="homodyne", d=3, m_values=list(range(9, 109)), M_values=[20],
                     ensembles=2, trials=20, seed=7, wigner_points=21),
    "homodyne-wigner": dict(experiment="homodyne", d=3, m_values=[9, 20], M_values=[20],
                            ensembles=1, trials=20, seed=7, wigner_points=201),
}
KILL_AFTER_ROWS = 10


def _ready_to_kill(case, out) -> bool:
    if case == "homodyne-wigner":
        return any(path.name.endswith(".tmp") and "_wigner_" in path.name
                   for path in out.parent.iterdir())
    return out.exists() and out.read_text().count("\n") > KILL_AFTER_ROWS


def _run_files(directory) -> dict:
    """{name: bytes} of every file in a run's directory, each .meta.json
    without its `out` line, which names the directory."""
    files = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name.endswith(".meta.json"):
            lines = [line for line in lines if not line.startswith(b'  "out": ')]
        files[path.name] = b"".join(lines)
    return files


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
    # SIGKILL once polling finds the CSV with KILL_AFTER_ROWS rows, or a
    # temporary Wigner file, then rerun the same command: the CSV,
    # .meta.json and Wigner files are those of the uninterrupted run, but
    # for the worker count recorded, and no .tmp file is left
    case, cfg, expected = uninterrupted_run
    doc = KILLED_RUNS[case]
    (tmp_path / "run").mkdir()
    out = tmp_path / "run" / "run.csv"
    command = [sys.executable, "-m", "tomolin.cli", doc["experiment"], "--config", str(cfg),
               "--workers", str(workers), "--out", str(out)]
    proc = subprocess.Popen(command, env=_cli_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not _ready_to_kill(case, out):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait() == -signal.SIGKILL
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    rows = out.read_text().count("\n") - 1
    cells = len(doc["m_values"]) * doc["ensembles"]
    if case == "homodyne-wigner":
        assert rows == cells
    else:
        assert KILL_AFTER_ROWS <= rows < cells
    resumed = subprocess.run(command, env=_cli_env(), capture_output=True, text=True,
                             timeout=120)
    assert resumed.returncode == 0, resumed.stderr
    meta = "run.csv.meta.json"
    expected = {**expected, meta: expected[meta].replace(
        b'  "workers": 1,\n', f'  "workers": {workers},\n'.encode())}
    assert _run_files(tmp_path / "run") == expected


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
        dx = (2 * cfg.wigner_span) / (cfg.wigner_points - 1)
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


class TestAtomicWrites:
    def test_interrupted_wigner_export_leaves_no_partial_file(self, tmp_path):
        values = _FailingRows(_true_signal_grid())
        path = tmp_path / "homo_wigner_true.csv"
        with pytest.raises(RuntimeError, match="interrupted"):
            bench._wigner_csv(str(path), _WIGNER_AXIS, values)
        assert os.listdir(tmp_path) == []
        # a file of an earlier run keeps its bytes
        path.write_text("earlier\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            bench._wigner_csv(str(path), _WIGNER_AXIS, values)
        assert os.listdir(tmp_path) == [path.name] and path.read_text() == "earlier\n"

    def test_interrupted_metadata_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # json.dump writes the keys before the unserialisable value
        monkeypatch.setattr(bench, "_metadata", lambda cfg: {"a": 1, "z": object()})
        with pytest.raises(TypeError):
            bench.run_sweep_probes(bench.ExperimentConfig(**TINY_PROBES,
                                                          out=str(tmp_path / "p.csv")))
        assert os.listdir(tmp_path) == []


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
    signal = homodyne.true_signal(6)
    return homodyne.wigner(np.outer(signal, signal.conj()), _WIGNER_AXIS, _WIGNER_AXIS)


class TestHomodyneRunMemory:
    """Deterministic memory guards of the kernels of a homodyne run."""

    def test_wigner_grid_peak(self):
        assert _traced_peak(_true_signal_grid) < 1.0e6

    def test_wigner_values_own_a_real_buffer(self):
        values = _true_signal_grid()
        assert values.dtype == np.float64 and values.base is None

    def test_wigner_csv_peak(self, tmp_path):
        grid = _true_signal_grid()
        assert _traced_peak(bench._wigner_csv, str(tmp_path / "w.csv"), _WIGNER_AXIS, grid) < 0.2e6

    @pytest.mark.parametrize("points", [201, 5])
    def test_wigner_csv_bytes_equal_whole_grid_writer(self, tmp_path, points):
        rho = qstate.random_density_hs(6, np.random.default_rng(5))
        axis = np.linspace(-5.0, 5.0, points)
        grid = homodyne.wigner(rho, axis, axis)
        bench._wigner_csv(str(tmp_path / "rows.csv"), axis, grid)
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
        cfg = bench.ExperimentConfig(**bench.FULL_SCALE_HOMODYNE, experiment="homodyne")
        bench._task(cfg, 30, 0)  # fills the caches of a d = 6 run
        assert _traced_peak(bench._task, cfg, 130, 0) < 0.9e6

    def test_run_peak_with_wigner_exports(self, tmp_path):
        # four reconstructed 201 x 201 grids and the true one, each written
        # before the next is computed
        cfg = bench.ExperimentConfig(experiment="homodyne", d=6, M_values=(100,),
                                     m_values=(36, 100), ensembles=1, trials=20,
                                     out=str(tmp_path / "homo.csv"))
        bench._task(cfg, 36, 0)  # fills the caches of a d = 6 run
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
        report = selftest.run_selftest(bench.ExperimentConfig(experiment="selftest", selftest_count=40))
        assert report.passed
        lines = report.format_lines()
        assert any("matlib" in line for line in lines)
        assert lines[-1] == "selftest: PASS"

    def test_reports_counts_per_suite(self):
        report = selftest.run_selftest(bench.ExperimentConfig(experiment="selftest", selftest_count=40))
        summary = [l for l in report.format_lines() if "checks passed" in l]
        assert len(summary) == 3

    def test_refuses_another_experiments_config(self):
        with pytest.raises(bench.ConfigError, match="experiment"):
            selftest.run_selftest(bench.ExperimentConfig(experiment="homodyne", d=6,
                                                         M_values=(100,)))

    def test_corrupted_pinv_tolerance_fails(self):
        report = selftest.run_selftest(
            bench.ExperimentConfig(experiment="selftest", selftest_count=20, rtol=0.5))
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "penrose-c1-c4" for c in failed)


class TestCli:
    def test_selftest_exit_codes(self, capsys):
        assert cli.main(["selftest"]) in (0,)  # default must pass
        out = capsys.readouterr().out
        assert "selftest: PASS" in out

    def test_selftest_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "selftest", "selftest_count": 20, "rtol": 0.5}))
        assert cli.main(["selftest", "--config", str(cfg)]) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps({"experiment": "sweep-probes", "d": 1}))
        assert cli.main(["sweep-probes", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        dict(experiment="sweep-probes", d=4, m_values=[3, 18], M_values=[20]),
        dict(experiment="sweep-outcomes", d=3, m_values=[2, 4], M_values=[6]),
        dict(experiment="homodyne", d=2, m_values=[4], M_values=[4]),
        dict(experiment="homodyne", m_values=[16], M_values=[40], x_max=0.0),
        dict(experiment="homodyne", m_values=[16], M_values=[40], dx=0.0),
        dict(experiment="sweep-probes", m_values=5),
        dict(experiment="sweep-probes", m_values=[18, 18]),
        dict(experiment="sweep-probes", M_values=[4, 4]),
        dict(experiment="sweep-probes", seed=1.5),
        dict(experiment="sweep-probes", m_values=[18.7]),
        dict(experiment="sweep-probes", ensembles=True),
        dict(experiment="sweep-probes", d="4"),
        dict(experiment="homodyne", eta="0.5"),
        dict(experiment="sweep-probes", noise_ratio_data="0.1"),
        dict(experiment="sweep-probes", rtol=-1),
        dict(experiment="homodyne", wigner_points=0),
        dict(experiment="homodyne", wigner_span=-1),
        dict(experiment="homodyne", wigner_export_m=[99]),
        dict(experiment="selftest", selftest_count=0),
        dict(experiment="homodyne", m_values=[16, 40], M_values=[40], wigner_export_m=[16, 16]),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "malformed.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_worker_crash_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "_task", _exit_in_worker)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        assert cli.main(["sweep-probes", "--config", str(cfg), "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "worker process failed" in err and "numerical failure" not in err

    @pytest.mark.parametrize("doc", [
        dict(experiment="sweep-outcomes", d=2, m_values=[4], M_values=[6], ensembles=1,
             trials=20, noise_ratio_data=1e308),
        dict(experiment="homodyne", d=3, m_values=[9], M_values=[12], ensembles=1,
             trials=20, dx=1e300),
    ], ids=["infinite-mse", "overflowed-patterns"])
    def test_non_finite_values_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run.csv"
        assert cli.main([doc["experiment"], "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert out.read_text() == bench.CSV_HEADER + "\n"

    def test_non_finite_wigner_grid_exit_code(self, tmp_path, capsys):
        # the Wigner kernel overflows at |x| = 1e300; the rows are kept and
        # no grid file is left, under its name or as a .tmp
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(dict(experiment="homodyne", d=3, m_values=[9], M_values=[9],
                                       ensembles=1, trials=10, wigner_span=1e300,
                                       wigner_points=2)))
        out = tmp_path / "run.csv"
        assert cli.main(["homodyne", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert sorted(os.listdir(tmp_path)) == ["overflow.json", "run.csv", "run.csv.meta.json"]
        assert len(read_rows(out)) == 1

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

    @pytest.mark.parametrize("owner, writer", [(bench, "_wigner_csv"),
                                               (bench._OutputFiles, "write_rows")],
                             ids=["wigner", "rows"])
    def test_output_error_exit_code(self, tmp_path, capsys, monkeypatch, owner, writer):
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(owner, writer, full_disk)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_HOMODYNE.items()}))
        out = tmp_path / "homo.csv"
        assert cli.main(["homodyne", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]

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
    def test_resume_with_other_config_refused(self, tmp_path, capsys, rerun):
        # one M value, so the same document is valid for both sweeps
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(dict(experiment="sweep-probes", d=2, m_values=[6],
                                       M_values=[6], ensembles=2, trials=20, seed=7)))
        out = tmp_path / "probes.csv"
        meta = tmp_path / "probes.csv.meta.json"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        before = (out.read_bytes(), meta.read_bytes())
        capsys.readouterr()
        assert cli.main([*rerun, "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert (out.read_bytes(), meta.read_bytes()) == before

    def test_resume_of_foreign_csv_refused(self, tmp_path, capsys):
        out = tmp_path / "other.csv"
        out.write_text("a,b,c,d,e,f,g,h,i\n2,3,6,6,7,0,1.0,1.0,1.0\n")
        assert cli.main(["sweep-probes", "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert out.read_text() == "a,b,c,d,e,f,g,h,i\n2,3,6,6,7,0,1.0,1.0,1.0\n"

    def test_resume_with_other_worker_count_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out),
                         "--workers", "1"]) == 0
        before = out.read_bytes()
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out),
                         "--workers", "2"]) == 0
        assert "0 rows written" in capsys.readouterr().out
        assert out.read_bytes() == before

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
                "print('\\n'.join(row.csv_row() for row in rows))")
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

    @pytest.mark.parametrize("out", ["missing/probes.csv", "a-directory"])
    def test_unusable_out_refused(self, tmp_path, capsys, out):
        (tmp_path / "a-directory").mkdir()
        assert cli.main(["sweep-probes", "--out", str(tmp_path / out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory"]

    @pytest.mark.parametrize("edit", MALFORMED_CSV_EDITS.values(), ids=MALFORMED_CSV_EDITS)
    def test_resume_of_malformed_row_refused(self, tmp_path, capsys, edit):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        meta = tmp_path / "probes.csv.meta.json"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        out.write_text("".join(edit(out.read_text().splitlines(keepends=True))))
        before = (out.read_bytes(), meta.read_bytes())
        capsys.readouterr()
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert (out.read_bytes(), meta.read_bytes()) == before

    def test_resume_accepts_infinite_value(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join([*lines[:2], _with_field(lines[2], 8, "inf"), *lines[3:]]))
        before = out.read_bytes()
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        assert "0 rows written" in capsys.readouterr().out
        assert out.read_bytes() == before

    @pytest.mark.parametrize("change", [
        {"seed": 8}, {"d": 3}, {"m_values": [3]}, {"M_values": [7]}, {"ensembles": 1},
    ], ids=["seed", "d", "m", "M", "ensemble"])
    def test_resume_of_other_run_without_metadata_refused(self, tmp_path, capsys, change):
        # with the .meta.json gone, the rows themselves must match the config
        doc = dict(d=2, m_values=[3, 4], M_values=[6], ensembles=2, trials=20)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert cli.main(["sweep-outcomes", "--config", str(cfg), "--seed", "7",
                         "--out", str(out)]) == 0
        (tmp_path / "o.csv.meta.json").unlink()
        before = out.read_bytes()
        cfg.write_text(json.dumps({**doc, "seed": 7, **change}))
        capsys.readouterr()
        assert cli.main(["sweep-outcomes", "--config", str(cfg), "--out", str(out)]) == 1
        assert "not a row of this run" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "o.csv"]

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
