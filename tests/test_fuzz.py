"""Fuzz gate over config documents: every CLI run of a small, possibly
invalid or extreme config, at a drawn rank cutoff, either succeeds with
only finite values in the files it wrote, or exits with a documented code
and one stderr line, leaving no file at all, .tmp files included.  A run's
CSV cut at any byte, then the run again on two workers, ends as the
uninterrupted one-worker run did.  Every selftest run passes or fails with
its verdict as the last line, writes nothing to stderr and no file."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tomolin import cli

# the documented failure exits and the first words of their stderr line
FAILURES = {
    1: ("config error: ", "output error: ", "out of memory: "),
    2: ("numerical failure: ", "worker process failed: "),
}


EXPERIMENTS = ["sweep-probes", "sweep-outcomes", "homodyne"]

# rank cutoffs of matlib.pinv, set by oracles.pinv_cutoff: its default
# (None), 1e-300, which keeps singular values of rounding, and up to 1 - 1e-12
CUTOFFS = st.sampled_from((None, 1e-300, 1e-8, 0.5, 1 - 1e-12))


@st.composite
def config_documents(draw, experiments=EXPERIMENTS) -> dict:
    """A small config document of one of experiments: d <= 4, at most three
    m values, two ensembles and 20 trials, one worker, with edge values
    such as zero noise, noise ratios up to 1e308, eta 0 or 1, m < n + 1
    and M = 1; every key is a config field."""
    experiment = draw(st.sampled_from(experiments))
    # homodyne needs d >= 3 and a sweep m >= d; one below either is refused
    d = draw(st.integers(2 if experiment == "homodyne" else 1, 3)) + 1
    return dict(
        experiment=experiment,
        d=d,
        m_values=draw(st.lists(st.integers(d - 1, 20), min_size=1, max_size=3, unique=True)),
        M_values=draw(st.lists(st.integers(1, 20), min_size=1, unique=True,
                               max_size=3 if experiment == "sweep-probes" else 1)),
        noise_ratio_patterns=draw(st.sampled_from((0.0, 1e-12, 0.03, 2.0, 1e155, 1e308))),
        noise_ratio_data=draw(st.sampled_from((0.0, 1e-12, 0.06, 2.0, 1e155, 1e308))),
        ensembles=draw(st.integers(1, 2)),
        trials=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32)),
        workers=1,
        eta=draw(st.sampled_from((0.0, 1e-9, 0.8, 1.0))),
        wigner_points=draw(st.integers(2, 4)),
    )


def _finite_csv(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return all(math.isfinite(float(v)) for line in lines for v in line.split(","))


def _complete(path: str) -> bool:
    # every file under a final name ends at a complete line
    with open(path, "rb") as fh:
        blob = fh.read()
    return blob.endswith(b"\n")


def _run(doc: dict, tmp: str, out: str, *flags) -> tuple:
    """(exit code, stderr) of a CLI run of doc, written to tmp/config.json,
    with its output at out.  A key that is no config field would refuse
    every document, and the gates would pass without a run."""
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([doc["experiment"], "--config", config, "--out", out, *flags])
    assert not err.getvalue().startswith("config error: unknown config keys")
    return code, err.getvalue()


@settings(max_examples=300)
@given(doc=config_documents(), cutoff=CUTOFFS)
def test_every_run_succeeds_finite_or_fails_documented(doc, cutoff):
    with tempfile.TemporaryDirectory() as tmp, oracles.pinv_cutoff(cutoff):
        code, err = _run(doc, tmp, os.path.join(tmp, "run.csv"))
        written = sorted(set(os.listdir(tmp)) - {"config.json"})
        assert not any(name.endswith(".tmp") for name in written)
        assert all(_complete(os.path.join(tmp, name)) for name in written)
        if code == 0:
            assert err == ""
            assert all(_finite_csv(os.path.join(tmp, name)) for name in written
                       if name.endswith(".csv"))
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(FAILURES[code])
            assert written == []


def _files(directory: str) -> dict:
    """{name: bytes} of every file in directory."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=7)
@given(data=st.data())
def test_cut_run_reruns_on_two_workers_to_one_worker_files(experiment, data):
    # the CSV and .meta.json of a one-worker run, the CSV cut at a drawn
    # byte, possibly mid-line; the run again on a pool exits as the
    # uninterrupted run did and leaves the same files; the pool's workers
    # fork with the cutoff in place
    doc = data.draw(config_documents([experiment]), label="doc")
    cutoff = data.draw(CUTOFFS, label="cutoff")
    with tempfile.TemporaryDirectory() as tmp, oracles.pinv_cutoff(cutoff):
        one, two = os.path.join(tmp, "one"), os.path.join(tmp, "two")
        os.mkdir(one)
        os.mkdir(two)
        code, err = _run(doc, tmp, os.path.join(one, "run.csv"))
        csv = os.path.join(two, "run.csv")
        if os.path.exists(os.path.join(one, "run.csv")):
            shutil.copyfile(os.path.join(one, "run.csv"), csv)
            shutil.copyfile(os.path.join(one, "run.csv.meta.json"), csv + ".meta.json")
            os.truncate(csv, data.draw(st.integers(0, os.path.getsize(csv)), label="cut"))
        rerun, rerun_err = _run(doc, tmp, csv, "--workers", "2")
        assert (rerun, rerun_err.partition(": ")[0]) == (code, err.partition(": ")[0])
        assert _files(two) == _files(one)


@settings(max_examples=25)
@given(doc=st.fixed_dictionaries(dict(
    selftest_count=st.sampled_from((1, 2, 100)),
    seed=st.integers(min_value=0),
)), cutoff=CUTOFFS)
def test_every_selftest_passes_or_fails_quietly(doc, cutoff):
    with tempfile.TemporaryDirectory() as tmp, oracles.pinv_cutoff(cutoff):
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["selftest", "--config", config])
        assert (code, out.getvalue().splitlines()[-1]) in ((0, "selftest: PASS"),
                                                           (3, "selftest: FAIL"))
        assert err.getvalue() == ""
        assert os.listdir(tmp) == ["config.json"]
