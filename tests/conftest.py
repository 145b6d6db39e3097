"""One hypothesis profile for every test: derandomized, so each run draws
the same examples, with no example database and no deadline.

hypothesis also caches the constants it reads from the package's sources
under its home directory, .hypothesis/ in the working directory by
default, and does so while pytest collects the tests.  A temporary home,
set when pytest starts and removed when it ends, keeps a test run from
leaving that directory behind."""

import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HOME], ignore_errors=True)
