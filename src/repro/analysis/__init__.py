"""Whole-program contract analysis for the repro codebase.

Where :mod:`repro.lintkit` checks invariants one file at a time, this
package parses the whole source tree once into a
:class:`~repro.analysis.model.ProjectModel` and runs interprocedural
*checkers* (PA001-PA010) over it: protocol exhaustiveness, telemetry
drift, cross-module fork safety, the pragma-debt ratchet, and — via
the :class:`~repro.analysis.concurrency.ConcurrencyModel` call graph —
blocking-call reachability from event-loop code, cross-domain shared
state races with await-atomicity, and task lifecycle hygiene; then the
protocol conformance gate: the session automaton, resource release on
every exit path, and strategy downlink causality — the cross-module
seams where drift previously surfaced only as a flaky
simulation.  Runnable as ``python -m repro analyze`` with the same
output formats and exit codes as the linter.

See ``docs/STATIC_ANALYSIS.md`` for the checker catalogue, the shared
``# lint: allow=PAxxx`` pragma syntax and the guide to adding checkers.
"""

from .base import ALL_CHECKERS, Checker, checker, get_checker
from .model import AnalysisError, ClassInfo, ModuleInfo, ProjectModel
from .runner import run_analysis

__all__ = [
    "ALL_CHECKERS",
    "AnalysisError",
    "Checker",
    "ClassInfo",
    "ModuleInfo",
    "ProjectModel",
    "checker",
    "get_checker",
    "run_analysis",
]
