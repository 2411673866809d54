"""Example budgets of the oracle property suites.

Tier-1 has a two-minute budget, so the dearest differential suites draw
a reduced number of examples there; the CI ``deep-checks`` job re-runs
the same files under ``REPRO_DEEP=1`` and draws them all.
"""

import os


def deep() -> bool:
    """Whether the full budgets are drawn (``REPRO_DEEP=1``)."""
    return os.environ.get("REPRO_DEEP", "") not in ("", "0")


def examples(quick: int, full: int) -> int:
    """``full`` under ``REPRO_DEEP=1``, ``quick`` otherwise."""
    return full if deep() else quick
