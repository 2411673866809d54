"""Fixtures shared across the test packages."""

import pytest

from repro.analysis import run_analysis
from repro.analysis.runner import package_root


@pytest.fixture(scope="session")
def shipped_report():
    """One ``repro check`` run, every rule, over the shipped package.

    Parsing the whole tree takes seconds, so the tests that only read
    the verdict share this run; ``tests/lintkit/test_selfcheck.py``
    keeps one run of the command end to end.
    """
    return run_analysis(package_root())
