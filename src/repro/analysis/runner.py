"""Parsing, rule dispatch and report assembly.

One run is: parse every file under the root once, hand each module to
every selected rule whose scope covers it, and return every diagnostic
in a :class:`Report` — the one object the text and JSON renderers and
the exit-code mapping read.  Nothing suppresses a finding: it is
fixed, or the rule changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Type

from .base import ALL_RULES, Rule
from .diagnostics import Diagnostic
from .model import parse_tree

#: JSON report schema version; bump on breaking field changes.
SCHEMA_VERSION = 1


class Report:
    """Outcome of one run."""

    def __init__(self, diagnostics: Sequence[Diagnostic],
                 files_checked: int,
                 rule_ids: Sequence[str]) -> None:
        self.diagnostics: List[Diagnostic] = sorted(diagnostics)
        self.files_checked = files_checked
        self.rule_ids: List[str] = list(rule_ids)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def render_text(self) -> str:
        """Human-readable report, one diagnostic per line."""
        lines = [diag.render() for diag in self.diagnostics]
        lines.append("%d file(s) checked, %d problem(s) found"
                     % (self.files_checked, len(self.diagnostics)))
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report (schema asserted by the test suite)."""
        counts = {rule_id: 0 for rule_id in self.rule_ids}
        for diag in self.diagnostics:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
        payload = {
            "version": SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
            "counts": counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def package_root() -> Path:
    """Directory of the ``repro`` package (the default root)."""
    return Path(__file__).resolve().parent.parent


def run_analysis(root: Optional[Path] = None,
                 rule_classes: Optional[Sequence[Type[Rule]]] = None
                 ) -> Report:
    """Check the tree under ``root`` and return the report.

    ``rule_classes`` defaults to every registered rule.  Raises
    :class:`~repro.analysis.model.AnalysisError` on a missing root or
    unreadable or unparsable input.
    """
    modules = parse_tree(Path(root) if root is not None
                         else package_root())
    classes = (list(rule_classes) if rule_classes is not None
               else ALL_RULES())
    rules = [cls() for cls in classes]
    diagnostics = [diag for module in modules for checker in rules
                   if checker.applies_to(module.rel_path)
                   for diag in checker.check_module(module)]
    return Report(diagnostics, files_checked=len(modules),
                  rule_ids=[cls.rule_id for cls in classes])
