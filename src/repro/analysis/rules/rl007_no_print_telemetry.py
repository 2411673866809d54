"""RL007: library code reports through telemetry, not ``print``.

The telemetry layer (:mod:`repro.telemetry`) gives every subsystem a
structured channel — typed trace events, metrics instruments, and the
``repro report`` exporters — so a bare ``print()`` in library code is
always a design smell: it bypasses the trace sink (the output is
invisible to ``repro trace``/``repro report``), it corrupts machine
consumed stdout (the JSON/prom exporters and the benchmark harness all
parse it), and under the sharded engine it interleaves arbitrarily
across worker processes.

Any call to the ``print`` builtin is flagged.  Two locations are
sanctioned and excluded by scope: ``cli.py`` (the one place whose job
*is* writing to stdout) and the ``analysis`` package itself (diagnostic
rendering).  Code with a genuine reason to print — a doctest, a debug
helper — should either live behind the CLI or carry a same-line
``# lint: allow=RL007`` pragma explaining itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo


@rule
class NoPrintTelemetryRule(Rule):
    """No ``print()`` in library code; emit telemetry instead."""

    rule_id = "RL007"
    title = "no-print-telemetry: library code emits events, not stdout"

    def applies_to(self, rel_path: str) -> bool:
        # The CLI owns stdout; the checker renders its own diagnostics.
        return not (rel_path == "cli.py"
                    or rel_path.startswith("analysis/"))

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield self.diagnostic(
                    module, node,
                    "print() in library code; emit a telemetry event or "
                    "metric (repro.telemetry) so the output reaches the "
                    "trace sink and the exporters")
