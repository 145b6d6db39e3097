"""Per-layer metrics from the spans and counts of a traced CLI run.

A layer's self time is the duration of its spans minus the part of each
span's interval that its child spans cover.
"""

from collections import defaultdict


def self_times(spans) -> list:
    """Self time of every span; spans are (start, end, parent index) with
    parent -1 for a root.  Child intervals are clipped to their parent and
    merged before they are subtracted, so overlapping children count once."""
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][0], spans[parent][1]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(trace: dict) -> dict:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    rows = trace["spans"]
    selfs = self_times([(r[1], r[2], r[3]) for r in rows])
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in trace["names"]}
    for row, own in zip(rows, selfs):
        entry = stats[trace["names"][row[0]]]
        entry["calls"] += 1
        entry["total_s"] += row[2] - row[1]
        entry["self_s"] += own
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _share(ok: float, attempted: float) -> float:
    """ok / attempted; 1.0 when nothing was attempted, as no attempt failed.
    The attempted count is reported beside each share, so the two cases
    stay apart, and a change that starts making attempts cannot read as a
    gain."""
    return ok / attempted if attempted else 1.0


def layer_metrics(trace: dict, stamp: dict, wall_s: float, setup_s: float,
                  workers: int, bytes_written: int) -> dict:
    """The per-layer metrics of one traced run.  stamp is the launcher's
    record of that run (import time, CPU counters around bench.run_*)."""
    stats = summarize(trace)
    counts = trace["counts"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    bench_self = sum(v["self_s"] for k, v in stats.items() if k.startswith("bench.run_"))
    # the pool's CPU is the workers' when there are workers, else the CLI
    # process's own time inside bench.run_*
    side = 1 if workers > 1 else 0
    pool_cpu = stamp["cpu_end"][side] - stamp["cpu_start"][side]
    metrics = {
        "cli.import_s": stamp["import_s"],
        "bench.self_s": bench_self,
        "bench.bytes_written": bytes_written,
        "bench.pool.busy_frac": _ratio(pool_cpu, workers * (wall_s - setup_s)),
        "matlib.svd.computed_mflop": counts.get("matlib.svd.flops", 0) / 1e6,
        "qstate.srm.accept_ratio": _share(counts.get("qstate.srm.accepted", 0),
                                          stat("qstate.square_root_measurement", "calls")),
        "protocols.estimate_batch.attempted": counts.get("protocols.estimate_batch.attempted", 0),
        "protocols.estimate_batch.valid_ratio": _share(
            counts.get("protocols.estimate_batch.valid", 0),
            counts.get("protocols.estimate_batch.attempted", 0)),
    }
    for name in ("matlib.pinv", "qstate.square_root_measurement",
                 "protocols.standard_inversion_matrix", "protocols.pattern_inversion_matrix",
                 "homodyne.homodyne_measurement", "homodyne.coherent_state_fock"):
        metrics[f"{name}.calls"] = stat(name, "calls")
    for name in ("matlib.pinv", "matlib.svd", "qstate.random_density_hs",
                 "qstate.state_to_bloch", "qstate.povm_to_affine",
                 "protocols.standard_inversion_matrix", "protocols.pattern_inversion_matrix",
                 "protocols.estimate_batch", "protocols.add_noise", "protocols.collect_patterns",
                 "homodyne.homodyne_measurement", "homodyne.coherent_state_fock",
                 "homodyne.wigner"):
        metrics[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("matlib.pinv", "homodyne.homodyne_measurement"):  # inclusive time per call
        metrics[f"{name}.us_per_call"] = 1e6 * _ratio(stat(name, "total_s"), stat(name, "calls"))
    return metrics
