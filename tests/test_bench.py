"""Tests for the experiment runner: configuration, CSV output, seeding
determinism, resumability, the selftest and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tomolin import bench, cli, matlib, selftest

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
        bench.ExperimentConfig().validate()

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
            replace(bench.ExperimentConfig(), **overrides).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(bench.ConfigError, match="unknown config keys"):
            bench.ExperimentConfig.from_dict({"probes": 10})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sweep-probes", "d": 2,
                                    "m_values": [5], "M_values": [4]}))
        cfg = bench.ExperimentConfig.from_file(str(path))
        assert cfg.d == 2 and cfg.m_values == (5,)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig.from_file(str(path))

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv(bench.WORKERS_ENV, "3")
        assert bench.ExperimentConfig().workers == 3
        monkeypatch.setenv(bench.WORKERS_ENV, "zero")
        with pytest.raises(bench.ConfigError):
            bench.ExperimentConfig()


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
        again, _ = bench._probe_sweep_task(cfg, target.m, target.ensemble)
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
            rows, _ = bench._outcome_sweep_task(cfg, m, 1)
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
    return [row for m in cfg.m_values for e in range(cfg.ensembles)
            for row in bench._outcome_sweep_task(cfg, m, e)[0]]


def csv_lines(rows):
    return [bench.CSV_HEADER, *(row.csv_row() for row in rows)]


def _exit_in_worker(cfg, m, ensemble):
    os._exit(1)


class TestRunHomodyne:
    def test_rows_and_wigner_exports(self, tmp_path):
        out = str(tmp_path / "homo.csv")
        cfg = bench.ExperimentConfig(**TINY_HOMODYNE, out=out)
        rows, exports = bench.run_homodyne(cfg)
        assert len(rows) == 4 * 2
        # exports at the minimal augmented point and at m = M
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
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "malformed.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main([doc["experiment"], "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_worker_crash_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "_probe_sweep_task", _exit_in_worker)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        assert cli.main(["sweep-probes", "--config", str(cfg), "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "worker process failed" in err and "numerical failure" not in err

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
        # scipy is imported only when a Wigner function is computed
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        code = "import sys, tomolin.cli; print('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "False"

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

    def test_resume_of_malformed_row_refused(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in TINY_PROBES.items()}))
        out = tmp_path / "probes.csv"
        meta = tmp_path / "probes.csv.meta.json"
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        parts = lines[2].split(",")
        parts[3] = "x"  # the M key of a complete row
        out.write_text("".join(lines[:2]) + ",".join(parts))
        before = (out.read_bytes(), meta.read_bytes())
        capsys.readouterr()
        assert cli.main(["sweep-probes", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert (out.read_bytes(), meta.read_bytes()) == before

    def test_full_scale_flag_changes_defaults(self):
        args = cli._build_parser().parse_args(["homodyne", "--full-scale"])
        cfg = cli._load_config(args)
        assert cfg.d == 6 and cfg.M_values == (100,)
