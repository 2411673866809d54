"""RL006: no wall-clock reads inside simulation hot paths.

Simulation time is the trace's sample clock; the telemetry stage
histograms use ``time.perf_counter`` deltas (a monotonic *duration*,
never an absolute date).  A ``time.time()`` or ``datetime.now()`` call
in a strategy, safe-region computation or index operation couples
results to the host clock — replays stop being reproducible, the
differential serial-vs-sharded suite can no longer assert bit-equality,
and golden figure tables drift.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo

#: Banned <module>.<attr> call pairs.  ``perf_counter``/``monotonic``
#: are deliberately absent: duration measurement is sanctioned.
_BANNED_TIME_ATTRS = frozenset({"time", "time_ns", "localtime", "ctime",
                                "gmtime", "asctime"})
_BANNED_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _dotted_root(node: ast.expr) -> Optional[str]:
    """The leftmost name of an attribute chain, or ``None``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@rule
class NoWallclockRule(Rule):
    """No ``time.time``/``datetime.now`` in simulation hot paths."""

    rule_id = "RL006"
    title = "no-wallclock: hot paths read the sample clock, not the host's"
    # protocol and net are in scope too: the framed path carries the
    # *simulation* clock on its envelope, so the serving side must stay
    # wallclock-free outside sanctioned perf_counter latency probes.
    scopes = ("engine", "strategies", "saferegion", "index", "geometry",
              "mobility", "alarms", "telemetry", "protocol", "net")

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in _BANNED_TIME_ATTRS):
                yield self.diagnostic(
                    module, node,
                    "wall-clock read time.%s() in a simulation hot path; "
                    "use the trace's sample clock (or perf_counter "
                    "deltas for duration buckets)" % func.attr)
            elif (func.attr in _BANNED_DATETIME_ATTRS
                  and _dotted_root(func.value) in ("datetime", "date")):
                yield self.diagnostic(
                    module, node,
                    "wall-clock read %s.%s() in a simulation hot path; "
                    "simulation results must not depend on the host "
                    "clock" % (ast.unparse(func.value)
                               if hasattr(ast, "unparse")
                               else "datetime", func.attr))
