"""Domain-invariant static analysis for the repro codebase.

The safe-region contract (paper Section 2.1) and the sharded engine's
determinism guarantee rest on invariants ordinary tooling cannot see:
geometry values are immutable, strategies are deterministic, worker code
must not write shared module state.  This package encodes each invariant
as a named AST-based lint rule (RL001-RL008) with a stable diagnostic
format, runnable as ``python -m repro lint``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the
``# lint: allow=RLxxx`` pragma syntax and the guide to adding rules.
"""

from .base import ALL_RULES, LintRule, RuleContext, get_rule, rule
from .diagnostics import Diagnostic
from .runner import LintReport, lint_file, run_lint

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintReport",
    "LintRule",
    "RuleContext",
    "get_rule",
    "lint_file",
    "rule",
    "run_lint",
]
