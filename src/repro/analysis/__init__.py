"""Static checking of the repro codebase: one framework, 18 rules.

The safe-region contract (paper Section 2.1), the sharded engine's
determinism guarantee and the client/server protocol rest on invariants
ordinary tooling cannot see.  This package parses the source tree once
into a :class:`~repro.analysis.model.ProjectModel` and runs every rule
over it: the file-local invariants RL001-RL008 (immutable geometry,
tolerant float comparison, seeded randomness, fork safety, the
``SafeRegion`` contract, no wall clock, no ``print``, the protocol
boundary) and the whole-program contracts PA001-PA010 (protocol
exhaustiveness, telemetry drift, cross-module fork safety, the
pragma-debt ratchet, blocking-call reachability, cross-domain races,
task lifecycle, the session automaton, resource release on every exit
path, strategy downlink causality).  Runnable as ``python -m repro
check``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the
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
