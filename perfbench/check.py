"""Correctness checks for one CLI run.

A cell is one (m, M, ensemble) row.  It fails when it is missing,
duplicated, malformed or non-finite, when its d, n or seed column is wrong,
when its ratio disagrees with e2_std / e2_pat, or when e2_std or e2_pat
differs from the stored reference by more than REFERENCE_RTOL.  A nonzero
exit, a stdout row count other than the expected one (for instance a
resumed run that wrote 0 rows) and a missing or malformed side file
(.meta.json, Wigner grids) fail every cell of the run.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

CSV_HEADER = "d,n,m,M,seed,ensemble,e2_std,e2_pat,ratio"
WIGNER_HEADER = "x,p,w"

# Swapping OpenBLAS kernels (OPENBLAS_CORETYPE=Prescott against the default
# Haswell kernels) moves e2 values by at most 4.6e-10 relative, also at the
# m = M resonance; this tolerance sits well above that and far below any
# change of the estimators themselves.
REFERENCE_RTOL = 1e-6
RATIO_RTOL = 1e-9  # the CSV rounds e2 values to 13 significant digits


@dataclass(frozen=True)
class Expected:
    """What one CLI run must produce."""

    d: int
    seed: int
    keys: tuple               # canonical (m, M, ensemble) order
    csv_name: str
    wigner_files: tuple = ()  # file names next to the CSV
    wigner_points: int = 201

    @property
    def n(self) -> int:
        return self.d * self.d - 1


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # file name -> sha256

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _check_rows(path: str, exp: Expected, reference, problems) -> set:
    """Return the set of expected keys that passed every row-level check."""
    wanted = set(exp.keys)
    seen = {}
    bad = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        problems.append("CSV does not end with a newline")
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"CSV header is {lines[0] if lines else ''!r}")
        return set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != 9:
                raise ValueError(f"{len(parts)} fields")
            d, n, m, M, seed, ens = (int(p) for p in parts[:6])
            e2s, e2p, ratio = (float(p) for p in parts[6:])
        except ValueError as exc:
            problems.append(f"line {lineno} malformed ({exc})")
            continue
        key = (m, M, ens)
        if key not in wanted:
            problems.append(f"line {lineno}: unexpected cell {key}")
            continue
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            problems.append(f"line {lineno}: duplicate cell {key}")
            bad.add(key)
            continue
        why = None
        if (d, n, seed) != (exp.d, exp.n, exp.seed):
            why = f"d,n,seed = {d},{n},{seed}"
        elif not all(math.isfinite(v) for v in (e2s, e2p, ratio)):
            why = "non-finite value"
        elif e2p <= 0 or not _close(ratio, e2s / e2p, RATIO_RTOL):
            why = f"ratio {ratio!r} != e2_std / e2_pat"
        elif reference is not None:
            ref_s, ref_p = reference[key]
            if not (_close(e2s, ref_s, REFERENCE_RTOL) and _close(e2p, ref_p, REFERENCE_RTOL)):
                why = f"e2 ({e2s!r}, {e2p!r}) differs from reference ({ref_s!r}, {ref_p!r})"
        if why is not None:
            problems.append(f"line {lineno}: cell {key}: {why}")
            bad.add(key)
    missing = wanted - set(seen)
    if missing:
        problems.append(f"{len(missing)} cells missing, first {min(missing)}")
    return set(seen) - bad


def _check_wigner(path: str, points: int) -> str | None:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != WIGNER_HEADER:
        return "bad header"
    if len(lines) - 1 != points * points:
        return f"{len(lines) - 1} grid rows, expected {points * points}"
    for line in lines[1:]:
        values = line.split(",")
        if len(values) != 3 or not all(math.isfinite(float(v)) for v in values):
            return f"bad grid row {line!r}"
    return None


def check_run(out_dir: str, exp: Expected, exit_code: int, stdout: str,
              reference=None) -> CheckResult:
    """Check one CLI run whose outputs, and nothing else, went to the fresh
    directory out_dir.

    reference maps (m, M, ensemble) to stored (e2_std, e2_pat), or is None
    when no reference is stored for this seed."""
    attempted = len(exp.keys)
    problems = []
    csv_path = os.path.join(out_dir, exp.csv_name)
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        digests[name] = sha256_file(os.path.join(out_dir, name))
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        return CheckResult(attempted, attempted, problems, digests)

    whole_run_ok = True
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if last != f"{attempted} rows written to {csv_path}":
        problems.append(f"stdout reports {last!r}, expected {attempted} rows written")
        whole_run_ok = False
    meta_path = csv_path + ".meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("seed") != exp.seed or meta.get("d") != exp.d:
            problems.append(f"metadata has seed {meta.get('seed')}, d {meta.get('d')}")
            whole_run_ok = False
    except (OSError, ValueError) as exc:
        problems.append(f"metadata unreadable: {exc}")
        whole_run_ok = False
    for name in exp.wigner_files:
        try:
            why = _check_wigner(os.path.join(out_dir, name), exp.wigner_points)
        except (OSError, ValueError) as exc:
            why = str(exc)
        if why is not None:
            problems.append(f"{name}: {why}")
            whole_run_ok = False
    if not os.path.exists(csv_path):
        problems.append("CSV missing")
        return CheckResult(attempted, attempted, problems, digests)
    good = _check_rows(csv_path, exp, reference, problems)
    failed = attempted if not whole_run_ok else attempted - len(good)
    return CheckResult(attempted, failed, problems, digests)
