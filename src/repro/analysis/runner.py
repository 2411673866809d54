"""Model construction, rule dispatch and report assembly.

One run is: build one :class:`ProjectModel` over the root (every file
read and parsed once), run every selected rule against it, drop the
diagnostics a same-line ``# lint: allow=`` pragma excuses, and return
a :class:`Report` — the one object the text, JSON and SARIF renderers
and the exit-code mapping read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Type

from .base import ALL_RULES, Rule
from .diagnostics import Diagnostic
from .model import ProjectModel
from .pragmas import is_allowed

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
                 rule_classes: Optional[Sequence[Type[Rule]]] = None,
                 debt_path: Optional[Path] = None) -> Report:
    """Check the tree under ``root`` and return the report.

    ``rule_classes`` defaults to every registered rule; ``debt_path``
    overrides PA004's upward search for ``lint_debt.json``.  Raises
    :class:`~repro.analysis.model.AnalysisError` on a missing root or
    unreadable or unparsable input.
    """
    model = ProjectModel.build(
        Path(root) if root is not None else package_root())
    model.debt_path = Path(debt_path) if debt_path is not None else None
    classes = (list(rule_classes) if rule_classes is not None
               else ALL_RULES())
    # Findings anchored outside the parsed modules (PA004's ledger)
    # have no pragma table: nothing can suppress them.
    allowed = {module.display_path: module.allowed
               for module in model.iter_modules()}
    diagnostics = [
        diag for cls in classes for diag in cls().check(model)
        if not is_allowed(allowed.get(diag.path, {}), diag.line,
                          diag.rule_id)]
    return Report(diagnostics, files_checked=len(model.modules),
                  rule_ids=[cls.rule_id for cls in classes])
