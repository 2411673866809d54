"""Static checking of the repro codebase: one framework, 11 rules.

The client/server protocol, the sharded engine's determinism guarantee
and the daemon's concurrency rest on invariants ordinary tooling cannot
see.  This package parses the source tree once into a
:class:`~repro.analysis.model.ProjectModel` and runs every rule over
it: the file-local invariants RL002-RL004 and RL006-RL008 (tolerant
float comparison, seeded randomness, fork safety, no wall clock, no
``print``, the protocol boundary) and the whole-program contracts
PA002-PA005 and PA009 (telemetry drift, cross-module fork safety, the
pragma-debt ratchet, blocking-call reachability, resource release on
every exit path).  Runnable as ``python -m repro check``.

The missing ids are retired: a guard that holds by construction (a
frozen type, an abstract base, a check inside every codec or daemon
close, the daemon's dispatch through the session table, the daemon
objects' refusal of writes from a thread other than their owner's)
enforces each.  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalogue, the retired rules and their guards, the
``# lint: allow=RLxxx`` pragma syntax and the guide to adding a rule.
"""

from .base import ALL_RULES, Rule, get_rule, rule
from .diagnostics import Diagnostic
from .model import AnalysisError, ClassInfo, ModuleInfo, ProjectModel
from .runner import Report, run_analysis

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "ClassInfo",
    "Diagnostic",
    "ModuleInfo",
    "ProjectModel",
    "Report",
    "Rule",
    "get_rule",
    "rule",
    "run_analysis",
]
