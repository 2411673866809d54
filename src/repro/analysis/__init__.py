"""Static checking of the repro codebase: one framework, 6 rules.

The client/server protocol and the sharded engine's determinism
guarantee rest on invariants ordinary tooling cannot see.  This
package parses every file of the source tree once
(:func:`~repro.analysis.model.parse_tree`) and hands each module to
every rule, one file at a time: RL002-RL004 and RL006-RL008 (tolerant
float comparison, seeded randomness, fork safety, no wall clock, no
``print``, the protocol boundary).  No rule reads across files.  Every
finding is reported: none can be suppressed, so a finding is fixed or
the rule changes.  Runnable as ``python -m repro check``.

The missing ids are retired: a guard that holds at every site (a
frozen type, a check inside every codec or daemon close, the daemon's
dispatch through the session table, the daemon objects' refusal of
writes from a thread other than their owner's, the telemetry
registry's and facade's refusal of an undeclared name, the test
harness's blocking-call guard on every daemon loop and its resource
warnings as errors, the sharded engine's spawn differential run)
enforces each, or the code it guarded is gone.  See
``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the retired rules
and their guards, and the guide to adding a rule.
"""

from .base import ALL_RULES, Rule, get_rule, rule
from .diagnostics import Diagnostic
from .model import AnalysisError, ModuleInfo, parse_tree
from .runner import Report, run_analysis

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "Diagnostic",
    "ModuleInfo",
    "Report",
    "Rule",
    "get_rule",
    "parse_tree",
    "rule",
    "run_analysis",
]
