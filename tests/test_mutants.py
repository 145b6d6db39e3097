"""The mutant catalogue stays current: each mutant's text occurs once in its
file, so a refactor that moves the text must update the catalogue, and
each of its test ids names a test function that exists."""

import os
import runpy

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MUTANTS = runpy.run_path(os.path.join(ROOT, "mutants", "catalogue.py"))["MUTANTS"]


def _read(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def test_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, file, old, new, ids", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_applies_once_and_names_its_tests(name, file, old, new, ids):
    assert file.startswith("src/") and old != new
    assert _read(file).count(old) == 1
    assert ids
    for node in ids:
        path, *parts = node.split("::")
        function = parts[-1].split("[")[0]
        assert f"def {function}(" in _read(path), node
