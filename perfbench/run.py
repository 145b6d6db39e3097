"""Benchmark of the tomolin CLI: time from a `tomolin` command to a verified
CSV, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the CLI is imported from
`src/`.  It is a closed loop with one client: one CLI process at a time,
each writing to a fresh output directory under `.perfbench/`.  After one
untimed warm-up launch it times SETUP_LAUNCHES set-up-only launches and then
full CLI runs until the next run would end past S seconds (at least one).
Every run's outputs are checked (see check.py) against the references
stored in reference.npz for this seed.

--trace 0 reports the end-to-end metrics of the best run (the lowest value,
or the highest where higher is better).  On a shared host other load only
ever slows a run down, and it comes and goes within seconds, so the best
run is the least disturbed one; over ten benchmark runs of `outcomes` the
median run spread further than the best (0.27 and 0.19 of its median in
two sets, against 0.15 and 0.14).  setup_s is the median over the set-up-only
launches and the runs.
  wall_s       launch to exit of one CLI run
  setup_s      launch to the first bench.run_* call (interpreter, imports,
               config)
  cells_per_s  correct result rows / (wall_s - setup_s)
  cpu_s        user + system CPU of the CLI process and its pool workers
  peak_rss_mb  largest resident set of any process of the run
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (see layers.py and README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402

CLOCK = time.monotonic  # the launcher stamps with the same system-wide clock
SETUP_LAUNCHES = 5
DEADLINE_S = 170.0       # whole benchmark process, below the 180 s limit
WORKERS = 1              # --workers of every CLI run: no process pool
BLAS_THREADS = 1         # workers x BLAS threads stays <= nproc on 2 cores
REFERENCE_FILE = os.path.join(HERE, "reference.npz")

GRIDS = {
    "sweep-outcomes": dict(d=4, m=tuple(range(16, 61, 4)), M=(30,), ensembles=50),
    "homodyne-full": dict(d=6, m=tuple(range(30, 131, 2)), M=(100,), ensembles=20),
}
WORKLOADS = {
    "outcomes": dict(grid="sweep-outcomes", args=("sweep-outcomes",)),
    "homodyne-full": dict(grid="homodyne-full", args=("homodyne", "--full-scale")),
}


def declared(section: str) -> dict:
    """Metric name -> its entry (unit, better, ...) in one section
    ("end_to_end" or "per_layer") of BENCHMARK.json, the one list of the
    benchmark's metrics."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def grid_keys(grid: str) -> tuple:
    """Canonical (m, M, ensemble) order of a grid; reference arrays follow it."""
    g = GRIDS[grid]
    return tuple((m, M, e) for m in g["m"] for M in g["M"] for e in range(g["ensembles"]))


def expected(workload: str, seed: int) -> check.Expected:
    grid = WORKLOADS[workload]["grid"]
    g = GRIDS[grid]
    wigner = ()
    if grid == "homodyne-full":
        export_m = (g["d"] * g["d"], g["M"][0])  # n + 1 and M, as the CLI chooses
        wigner = ("out_wigner_true.csv",) + tuple(
            f"out_wigner_{kind}_m{m}.csv" for m in export_m for kind in ("standard", "pattern"))
    return check.Expected(d=g["d"], seed=seed, keys=grid_keys(grid), csv_name="out.csv",
                          wigner_files=wigner)


def load_reference(grid: str, seed: int):
    """Stored (e2_std, e2_pat) per cell for this seed, or None if not stored."""
    import numpy as np

    with np.load(REFERENCE_FILE) as ref:
        seeds = [int(s) for s in ref["seeds"]]
        if seed not in seeds:
            return None
        values = ref[grid][seeds.index(seed)].astype(float)
    return {key: (float(v[0]), float(v[1])) for key, v in zip(grid_keys(grid), values)}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TOMOLIN_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Launcher:
    """Starts one CLI process at a time and waits for it to end."""

    def __init__(self, root: str, base: str, deadline: float):
        self.root = root
        self.base = base
        self.deadline = deadline
        self.env = child_env(root)
        self.count = 0

    def launch(self, cli_args, trace=False, setup_only=False) -> dict:
        self.count += 1
        # one fixed path, so .meta.json (which records --out) has the same
        # bytes in every run with the same seed
        exec_dir = os.path.join(self.base, "exec")
        shutil.rmtree(exec_dir, ignore_errors=True)
        out_dir = os.path.join(exec_dir, "out")
        os.makedirs(out_dir)
        stamp_path = os.path.join(exec_dir, "stamp.json")
        trace_path = os.path.join(exec_dir, "trace.json")
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--stamp", stamp_path]
        if trace:
            run_id = f"{os.path.basename(self.base)}-{os.getpid()}-{self.count}"
            cmd += ["--trace", trace_path, "--run-id", run_id]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", *cli_args, "--out", os.path.join(out_dir, "out.csv")]
        with open(os.path.join(exec_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(exec_dir, "stderr.txt"), "wb") as err:
            t_launch = CLOCK()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            watchdog = threading.Timer(max(1.0, self.deadline - CLOCK()), _kill_group, [proc.pid])
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: end the child first
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            t_exit = CLOCK()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crashed run
        with open(os.path.join(exec_dir, "stdout.txt"), "r", encoding="utf-8",
                  errors="replace") as fh:
            stdout = fh.read()
        stamp = {}
        if os.path.exists(stamp_path):
            with open(stamp_path, "r", encoding="utf-8") as fh:
                stamp = json.load(fh)
        run = {
            "out_dir": out_dir, "exit": proc.returncode, "stdout": stdout,
            "stamp": stamp, "trace_path": trace_path if trace else None,
            "wall_s": t_exit - t_launch,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        }
        if "t_run_start" in stamp:
            run["setup_s"] = stamp["t_run_start"] - t_launch
        return run


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def environment(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "tomolin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": workload, "seed": seed, "workers": WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(root), "source_sha256": digest.hexdigest(),
    }


def git_commit(root: str) -> str:
    """HEAD of the git checkout at root, or 'unknown' when root is not the
    top of a git checkout or git cannot be run."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def median(values):
    return statistics.median(values) if values else 0.0


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = CLOCK()
    spec = WORKLOADS[workload]
    exp = expected(workload, seed)
    reference = load_reference(spec["grid"], seed)
    cli_args = [*spec["args"], "--seed", str(seed), "--workers", str(WORKERS)]
    env = environment(root, workload, seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"reference: {'stored' if reference is not None else 'none stored'} for seed {seed}"
          f" (e2 values within rtol {check.REFERENCE_RTOL:g})")

    base = os.path.join(root, ".perfbench", workload)
    shutil.rmtree(base, ignore_errors=True)
    launcher = Launcher(root, base, started + DEADLINE_S)
    runs, traced, setups, results, problems = [], [], [], [], []
    digests = None
    identical = True
    try:
        launcher.launch(cli_args, setup_only=True)  # warm-up: page cache, bytecode
        t0 = CLOCK()
        for _ in range(SETUP_LAUNCHES):
            probe = launcher.launch(cli_args, setup_only=True)
            if probe["exit"] != 0 or "setup_s" not in probe:
                problems.append(f"set-up launch exited {probe['exit']}")
                break
            setups.append(probe["setup_s"])
        while not problems:
            want_trace = trace and len(traced) < len(runs)
            run = launcher.launch(cli_args, trace=want_trace)
            result = check.check_run(run["out_dir"], exp, run["exit"], run["stdout"], reference)
            results.append(result)
            digests = digests or result.digests
            identical = identical and result.digests == digests
            run["cells"] = result.attempted - result.failed
            run["bytes"] = sum(os.path.getsize(os.path.join(run["out_dir"], n))
                               for n in os.listdir(run["out_dir"]))
            if want_trace:
                if os.path.exists(run["trace_path"]):
                    kept = os.path.join(root, ".perfbench", f"trace-{workload}.json")
                    shutil.move(run["trace_path"], kept)
                    run["trace_path"] = kept
                traced.append(run)
            else:
                runs.append(run)
            if "setup_s" in run and not want_trace:
                setups.append(run["setup_s"])
            tag = "traced" if want_trace else "run"
            print(f"{tag} {len(results)}: exit {run['exit']} wall_s {run['wall_s']:.4f}"
                  f" setup_s {run.get('setup_s', float('nan')):.4f} cpu_s {run['cpu_s']:.4f}"
                  f" peak_rss_mb {run['peak_rss_mb']:.1f}"
                  f" failed {result.failed}/{result.attempted}")
            for line in result.problems[:5]:
                print(f"  problem: {line}")
            elapsed = CLOCK() - t0
            need_more = trace and (not traced or not runs)
            if not need_more and elapsed + run["wall_s"] > seconds:
                break
            if CLOCK() - started + 2 * run["wall_s"] > DEADLINE_S:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for name, digest in sorted((digests or {}).items()):
        print(f"sha256 {digest}  {name}")
    print(f"outputs identical across runs: {'yes' if identical else 'NO'}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = bool(results) and not problems and all(r.ok for r in results)
    print(f"{workload} failed_frac {failed / attempted if attempted else 1.0:.6g}"
          f" ({failed} of {attempted} cells)")

    if trace:
        specs = declared("per_layer")
        metrics = traced_metrics(runs, traced, WORKERS, specs)
        for name, value in metrics.items():
            print(f"{workload} {name} {fmt(value)} {specs[name]['unit']}")
    else:
        specs = declared("end_to_end")
        metrics = {}
        for name, values in end_to_end_values(runs, setups).items():
            how = "median" if name == "setup_s" else "best"
            metrics[name] = median(values) if how == "median" else \
                best(values, specs[name]["better"])
            print(f"{workload} {name} {fmt(metrics[name])} {specs[name]['unit']} ({how} of "
                  f"{len(values)}: {' '.join(fmt(v) for v in values)})")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": specs[name]["unit"]}
                    for name, value in metrics.items()},
    }


def best(values, better: str) -> float:
    if not values:
        return 0.0
    return min(values) if better == "lower" else max(values)


def end_to_end_values(runs, setups) -> dict:
    """Per end-to-end metric, its value in each untraced run."""
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setups,
        "cells_per_s": [r["cells"] / (r["wall_s"] - r["setup_s"]) for r in runs
                        if "setup_s" in r],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def traced_metrics(runs, traced, workers, names) -> dict:
    """Medians of the per-layer metrics called names over the traced runs;
    trace.overhead_frac compares the best traced and untraced wall_s."""
    per_run = []
    for run in traced:
        if run["exit"] != 0 or "setup_s" not in run or not os.path.exists(run["trace_path"]):
            continue
        with open(run["trace_path"], "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        per_run.append(layers.layer_metrics(trace, run["stamp"], run["wall_s"], run["setup_s"],
                                            workers, run["bytes"]))
    untraced = best([r["wall_s"] for r in runs], "lower")
    tr = best([r["wall_s"] for r in traced], "lower")
    overhead = (tr - untraced) / untraced if untraced else 0.0
    return {name: overhead if name == "trace.overhead_frac" else median([m[name] for m in per_run])
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tomolin", "cli.py")):
        print(f"error: no tomolin sources under {root}/src; run from the root of a "
              "tomolin checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running CLI process is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    result = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
