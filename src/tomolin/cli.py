"""Command line interface.

Exit codes: 0 success, 1 usage or configuration error, an OSError while
output is written (a full disk, say) or memory exhausted, 2 numerical
failure or a worker process that died, 3 selftest failure.
"""

import argparse
import ctypes
import importlib
import sys

import numpy as np

from . import bench, protocols, selftest


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, exit 1, so
    that exit 2 means a numerical failure only; its subparsers are of this
    class too."""

    def error(self, message):
        raise bench.ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        if name == "selftest":
            continue  # a selftest writes no file and starts no pool
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
    mallopt = bench._c_function(None, "mallopt", (ctypes.c_int, ctypes.c_int), ctypes.c_int)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def _import_numpy_random_without_openssl() -> None:
    """Import numpy.random without loading OpenSSL.

    numpy.random imports secrets, which imports hmac and hashlib, and both
    load _hashlib and with it OpenSSL's libcrypto: 3.4 MB of every run's
    resident memory, though every generator here is seeded and nothing is
    hashed.  With _hashlib blocked, hmac takes its compare_digest from
    _operator and hashlib its digests from CPython's builtin modules.  The
    hmac and hashlib modules made here then leave sys.modules, so a later
    import of hashlib loads OpenSSL as usual.  Pool workers are forked later
    and inherit the import.  Does nothing when numpy.random or _hashlib is
    already loaded.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    made = [name for name in ("hmac", "hashlib") if name not in sys.modules]
    sys.modules["_hashlib"] = None  # makes "import _hashlib" raise ImportError
    try:
        importlib.import_module("numpy.random")
    finally:
        del sys.modules["_hashlib"]
        for name in made:
            sys.modules.pop(name, None)


def _load_config(args) -> bench.ExperimentConfig:
    """One config document: the --config file, the subcommand's default
    grid for the grid keys the file leaves out, then the subcommand as
    experiment, --full-scale and the --seed, --out and --workers flags that
    the subcommand takes (selftest takes only --seed)."""
    doc = bench.read_config_document(args.config) if args.config else {}
    doc = {**bench.DEFAULT_GRIDS.get(args.command, {}), **doc, "experiment": args.command}
    if getattr(args, "full_scale", False):
        doc.update(bench.FULL_SCALE_HOMODYNE)
    for key in ("seed", "out", "workers"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    return bench.ExperimentConfig.from_dict(doc)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _keep_freed_memory()
        _import_numpy_random_without_openssl()
        cfg = _load_config(args)
        if args.command == "selftest":
            checks = selftest.run_selftest(cfg)
            for line in selftest.format_lines(checks):
                print(line)
            return 0 if all(map(selftest.passed, checks)) else 3
        if args.command == "sweep-probes":
            rows = bench.run_sweep_probes(cfg)
        elif args.command == "sweep-outcomes":
            rows = bench.run_sweep_outcomes(cfg)
        else:
            rows = bench.run_homodyne(cfg)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except (protocols.EstimationFailureError, FloatingPointError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        # FloatingPointError: patterns that overflow or a non-finite Wigner
        # grid; LinAlgError includes matlib.SvdError
        # BrokenProcessPool is a RuntimeError; its module is loaded only
        # where a pool was built, at --workers > 1
        pool = sys.modules.get("concurrent.futures.process")
        broken = pool is not None and isinstance(exc, pool.BrokenProcessPool)
        failure = "worker process failed" if broken else "numerical failure"
        print(f"{failure}: {exc}", file=sys.stderr)
        return 2
    print(f"{len(rows)} rows" + (f" written to {cfg.out}" if cfg.out else " computed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
