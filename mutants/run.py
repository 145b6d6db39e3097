"""Apply each catalogued mutant and require its tests to catch it.

    python3 mutants/run.py [NAME ...]

Run it from anywhere; it works on the checkout it sits in.  For each
mutant of catalogue.py (or only the NAMEs given), src/ is copied to a
temporary directory, the mutant's one replacement is made in the copy,
and pytest runs the mutant's test ids from the repository root with
PYTHONPATH at the copy, so the tests, and the CLI processes they start,
import the mutated package.  A mutant is caught when pytest reports a
failing test (exit status 1); it survives when every id passes, and a run
that cannot start or collect its ids (any other status) is an error, not
a catch.  One line per mutant reports the outcome and its time; the exit
status is 0 only when every mutant was caught.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

from catalogue import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def mutated_copy(directory: pathlib.Path, file: str, old: str, new: str) -> None:
    """Copy src/ under directory and replace old, which must occur exactly
    once, by new in the copy of file."""
    shutil.copytree(ROOT / "src", directory / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = directory / file
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{file} holds the mutated text {text.count(old)} times, not once")
    target.write_text(text.replace(old, new), encoding="utf-8")


def run_mutant(file: str, old: str, new: str, ids: list) -> int:
    """pytest's exit status on ids with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="tomolin-mutant-") as directory:
        directory = pathlib.Path(directory)
        mutated_copy(directory, file, old, new)
        env = dict(os.environ, PYTHONPATH=str(directory / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
        return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main(names: list) -> int:
    unknown = set(names) - {name for name, *_ in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for name, file, old, new, ids in MUTANTS:
        if names and name not in names:
            continue
        start = time.monotonic()
        status = run_mutant(file, old, new, ids)
        outcome = {0: "SURVIVED", 1: "caught"}.get(status, f"ERROR (pytest exit {status})")
        print(f"{outcome:<24} {name:<36} {time.monotonic() - start:6.1f} s", flush=True)
        outcomes.append(outcome)
    caught = outcomes.count("caught")
    print(f"{caught} of {len(outcomes)} mutants caught")
    return 0 if caught == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
