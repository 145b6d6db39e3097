"""Command line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 selftest failure.
"""

import argparse
import ctypes
import sys
from dataclasses import replace

import numpy as np

from . import bench, matlib, protocols

FULL_SCALE_HOMODYNE = dict(d=6, M_values=(100,), m_values=tuple(range(30, 131, 2)),
                           ensembles=20)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomolin",
        description="Linear-inversion tomography benchmarks with unknown detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep-probes", "performance ratio versus the probe count M"),
        ("sweep-outcomes", "performance ratio versus the outcome count m"),
        ("homodyne", "homodyne experiment with the fixed benchmark signal"),
        ("selftest", "run the library invariant suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output CSV path override")
        p.add_argument("--workers", type=int, help="worker process count override")
        if name == "homodyne":
            p.add_argument("--full-scale", action="store_true",
                           help="use the full-scale configuration (d_F=6, M=100)")
    return parser


# glibc mallopt parameters, and the size up to which freed memory is kept
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 16 << 20


def _keep_freed_memory() -> None:
    """Let glibc keep freed memory for reuse instead of handing it back to
    the kernel.

    Every cell allocates and frees arrays of some hundred kB.  Under glibc's
    default thresholds the larger ones are mapped and unmapped on each use
    and the heap is trimmed after each cell, so the next cell faults the
    same pages in again: about 80,000 minor page faults in a default
    sweep-outcomes run and 280,000 in homodyne --full-scale.  Without glibc
    this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


_DEFAULT_GRIDS = {
    "sweep-probes": dict(m_values=(18, 20, 24), M_values=(18, 20, 22, 24, 30, 60)),
    "sweep-outcomes": dict(m_values=tuple(range(16, 61, 4)), M_values=(30,)),
    "homodyne": dict(m_values=tuple(range(12, 49)), M_values=(40,)),
    "selftest": dict(),
}


def _load_config(args) -> bench.ExperimentConfig:
    if args.config:
        cfg = bench.ExperimentConfig.from_file(args.config)
        if cfg.experiment != args.command:
            cfg = replace(cfg, experiment=args.command)
    else:
        cfg = bench.ExperimentConfig(experiment=args.command, **_DEFAULT_GRIDS[args.command])
    if getattr(args, "full_scale", False):
        cfg = replace(cfg, **FULL_SCALE_HOMODYNE)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        cfg = _load_config(args)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "selftest":
        report = bench.run_selftest(cfg)
        for line in report.format_lines():
            print(line)
        return 0 if report.passed else 3

    try:
        if args.command == "sweep-probes":
            rows = bench.run_sweep_probes(cfg)
        elif args.command == "sweep-outcomes":
            rows = bench.run_sweep_outcomes(cfg)
        else:
            rows, _ = bench.run_homodyne(cfg)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (matlib.SvdError, protocols.EstimationFailureError,
            np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"{len(rows)} rows" + (f" written to {cfg.out}" if cfg.out else " computed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
