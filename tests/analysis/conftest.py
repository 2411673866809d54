"""Shared helpers for the analyzer tests: the fixture trees."""

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def fixture_root():
    """Path of one checker's miniature project tree."""
    def _root(name):
        root = FIXTURES / name
        assert root.is_dir(), "missing fixture tree: %s" % root
        return root
    return _root
