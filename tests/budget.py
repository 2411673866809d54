"""Example budgets of the oracle property suites.

Tier-1 has a two-minute budget, so the dearest differential suites draw
a reduced number of examples there.  The deep run is the whole suite
under ``REPRO_DEEP=1`` (``REPRO_DEEP=1 PYTHONPATH=src python -m pytest``,
CI's ``deep-checks`` job), and it draws them all.
"""

import os


def deep() -> bool:
    """Whether the full budgets are drawn (``REPRO_DEEP=1``)."""
    return os.environ.get("REPRO_DEEP", "") not in ("", "0")


def examples(quick: int, full: int) -> int:
    """``full`` under ``REPRO_DEEP=1``, ``quick`` otherwise."""
    return full if deep() else quick
