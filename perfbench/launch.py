"""Child-side launcher: runs the tomolin CLI in this process exactly as the
`tomolin` console script would, with hooks patched onto module attributes.

    python3 perfbench/launch.py --stamp FILE [--trace FILE --run-id ID]
                                [--setup-only] -- <tomolin arguments>

Every launch records, in the stamp file, the monotonic clock at the start
of the `bench.run_*` call, the CPU counters at its start and end, and the
time `import tomolin.cli` took.  `--setup-only` exits at the first
`bench.run_*` call, so it measures set-up alone.  `--trace` additionally
wraps the public functions of the layer modules, keeps one span per call in
memory and writes all spans to FILE when the run ends.

Spans cover the parent process only: the hooks are removed in any process
forked from it, so pool workers run unpatched code.
"""

import argparse
import json
import os
import resource
import sys
import time

CLOCK = time.monotonic  # CLOCK_MONOTONIC is shared by all processes on Linux

# (module, attribute) pairs traced with --trace; the span name is
# "<module>.<attribute>".
TRACED = (
    ("matlib", "pinv"),
    ("matlib", "svd"),
    ("qstate", "random_density_hs"),
    ("qstate", "state_to_bloch"),
    ("qstate", "povm_to_affine"),
    ("qstate", "square_root_measurement"),
    ("protocols", "standard_inversion_matrix"),
    ("protocols", "pattern_inversion_matrix"),
    ("protocols", "estimate_batch"),
    ("protocols", "add_noise"),
    ("protocols", "collect_patterns"),
    ("homodyne", "homodyne_measurement"),
    ("homodyne", "coherent_state_fock"),
    ("homodyne", "wigner"),
)
RUN_FUNCTIONS = ("run_sweep_probes", "run_sweep_outcomes", "run_homodyne")


def _cpu():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def svd_flops(shape) -> float:
    """Computed flop count of a thin SVD with singular vectors (R-SVD,
    Golub & Van Loan, "Matrix Computations", table 5.4.1): 6 m n^2 + 20 n^3
    for an m x n matrix with m >= n."""
    m, n = max(shape), min(shape)
    return 6.0 * m * n * n + 20.0 * n ** 3


class Tracer:
    """In-memory span recorder.  A span is [name index, start, end, parent
    span index]; all spans of one tracer share its run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counts = {}
        self.patched = []

    def _count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, before=None, after=None, on_error=None):
        """Replace module.attr by a function that records one span per call.

        before(args) runs ahead of the call, after(result) once it returns
        and on_error(exc) when it raises; the exception is re-raised."""
        fn = getattr(module, attr)
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = CLOCK()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            record[2] = CLOCK()
            stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(module, attr, traced)
        self.patched.append((module, attr, fn))

    def install(self, package) -> None:
        import numpy as np

        def svd_before(args):
            self._count("matlib.svd.flops", svd_flops(np.shape(args[0])))

        def batch_after(result):
            valid = result[1]
            self._count("protocols.estimate_batch.valid", int(valid.sum()))
            self._count("protocols.estimate_batch.attempted", int(valid.size))

        def srm_after(_):
            self._count("qstate.srm.accepted")

        def srm_error(exc):
            if isinstance(exc, package.qstate.RankDeficientGramError):
                self._count("qstate.srm.rejected")

        hooks = {
            "matlib.svd": dict(before=svd_before),
            "protocols.estimate_batch": dict(after=batch_after),
            "qstate.square_root_measurement": dict(after=srm_after, on_error=srm_error),
        }
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            self.wrap(getattr(package, mod_name), attr, name, **hooks.get(name, {}))
        for attr in RUN_FUNCTIONS:
            self.wrap(package.bench, attr, f"bench.{attr}")

    def restore(self) -> None:
        while self.patched:
            module, attr, fn = self.patched.pop()
            setattr(module, attr, fn)

    def document(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "spans": self.spans,
                "counts": self.counts}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--stamp", required=True, help="JSON file for clock and CPU stamps")
    parser.add_argument("--trace", help="JSON file for the spans; tracing is off without it")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit at the first bench.run_* call")
    split = argv.index("--") if "--" in argv else len(argv)
    return parser.parse_args(argv[:split]), argv[split + 1:]


class _SetupDone(Exception):
    """Raised at the first bench.run_* call of a --setup-only launch."""


def main(argv) -> int:
    opts, cli_args = _parse(argv)
    stamp = {}
    t0 = CLOCK()
    import tomolin
    import tomolin.cli
    stamp["import_s"] = CLOCK() - t0

    tracer = Tracer(opts.run_id) if opts.trace else None
    if tracer is not None:
        tracer.install(tomolin)
        os.register_at_fork(after_in_child=tracer.restore)

    bench = tomolin.bench
    originals = {attr: getattr(bench, attr) for attr in RUN_FUNCTIONS}
    for attr, inner in originals.items():

        def stamped(*args, _inner=inner, **kwargs):
            stamp.setdefault("t_run_start", CLOCK())
            stamp.setdefault("cpu_start", _cpu())
            if opts.setup_only:
                raise _SetupDone
            try:
                return _inner(*args, **kwargs)
            finally:
                stamp["cpu_end"] = _cpu()

        setattr(bench, attr, stamped)

    code = 0
    try:
        code = tomolin.cli.main(cli_args)
    except _SetupDone:
        code = 0
    finally:
        for attr, inner in originals.items():
            setattr(bench, attr, inner)
        if tracer is not None:
            tracer.restore()
            with open(opts.trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.document(), fh, separators=(",", ":"))
        with open(opts.stamp, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
