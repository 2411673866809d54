"""Example budgets of the oracle property suites.

Tier-1 has a two-minute budget, so the dearest differential suites draw
a reduced number of examples there; the CI ``sanitize-smoke`` job
re-runs the same files under ``REPRO_SANITIZE=1`` and draws them all.
"""

from repro.sanitize import Sanitizer


def examples(quick: int, full: int) -> int:
    """``full`` under ``REPRO_SANITIZE=1``, ``quick`` otherwise."""
    return full if Sanitizer.resolve().enabled else quick
