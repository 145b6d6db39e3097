"""Regenerate perfbench/reference.npz: the e2_std and e2_pat values of every
cell of the two benchmark grids for seeds 0 .. SEEDS - 1.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  Each run's outputs pass every check but the reference
comparison before they are stored; values are kept as float32, whose
relative rounding (6e-8) sits below check.REFERENCE_RTOL.
"""

import os
import shutil
import sys

import numpy as np

import run
from check import check_run

SEEDS = 24
GRID_WORKLOAD = {"sweep-outcomes": "outcomes", "homodyne-full": "homodyne-full"}


def read_cells(csv_path: str, keys) -> np.ndarray:
    values = {}
    with open(csv_path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            p = line.split(",")
            values[(int(p[2]), int(p[3]), int(p[5]))] = (float(p[6]), float(p[7]))
    return np.array([values[k] for k in keys], dtype=np.float32)


def main() -> int:
    root = os.getcwd()
    base = os.path.join(root, ".perfbench", "reference")
    shutil.rmtree(base, ignore_errors=True)
    launcher = run.Launcher(root, base, deadline=run.CLOCK() + 24 * 3600.0)
    arrays = {"seeds": np.arange(SEEDS)}
    try:
        for grid, workload in GRID_WORKLOAD.items():
            spec = run.WORKLOADS[workload]
            stack = []
            for seed in range(SEEDS):
                cli_args = [*spec["args"], "--seed", str(seed), "--workers", str(run.WORKERS)]
                result = launcher.launch(cli_args)
                exp = run.expected(workload, seed)
                checked = check_run(result["out_dir"], exp, result["exit"], result["stdout"])
                if not checked.ok:
                    print(f"{grid} seed {seed}: {checked.problems[:3]}", file=sys.stderr)
                    return 1
                stack.append(read_cells(os.path.join(result["out_dir"], exp.csv_name), exp.keys))
                print(f"{grid} seed {seed}: {len(exp.keys)} cells, {result['wall_s']:.1f} s",
                      flush=True)
            arrays[grid] = np.stack(stack)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    np.savez_compressed(run.REFERENCE_FILE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
