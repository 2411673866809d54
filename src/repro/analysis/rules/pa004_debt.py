"""PA004: the ``# lint: allow=`` pragma debt ratchets down, never up.

Suppression pragmas are technical debt with a paper trail: the repo
checks in a ledger (``lint_debt.json``, a ``{"RL002": 3, ...}`` map at
the repository root) recording how many pragmas each rule is allowed.
PA004 counts the pragmas actually present — the same per-line table of
``COMMENT`` tokens the runner suppresses from, so a pragma *mention*
inside a docstring or a string literal neither counts nor suppresses —
and compares:

* a rule with more pragmas than its ledger entry is a finding (adding
  a suppression without consciously raising the ratchet fails CI);
* a ledger entry larger than the live count is also a finding — debt
  that has been paid down must be locked in, or it silently grows back;
* pragmas with no ledger at all are findings (the ledger is the
  authorization);
* a ledger key that names no registered rule is a finding — a retired
  rule takes its ledger entry with it.

Ledger findings anchor to the ledger file itself, so a pragma can never
suppress PA004.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional

from ..base import ALL_RULES, Rule, rule
from ..diagnostics import Diagnostic
from ..model import ProjectModel

#: Ledger file name, searched for in the analysis root then upward.
LEDGER_NAME = "lint_debt.json"
#: How many parent directories above the root to search.
_LEDGER_SEARCH_DEPTH = 4


def count_pragmas(model: ProjectModel) -> Dict[str, int]:
    """Per-rule count of pragma comments across the model.

    A multi-rule pragma counts once per rule it names.
    """
    counts: Dict[str, int] = {}
    for module in model.iter_modules():
        for rule_ids in module.allowed.values():
            for rule_id in rule_ids:
                counts[rule_id] = counts.get(rule_id, 0) + 1
    return counts


def find_ledger(root: Path) -> Optional[Path]:
    """Locate ``lint_debt.json`` in ``root`` or a nearby ancestor."""
    directory = root
    for _ in range(_LEDGER_SEARCH_DEPTH + 1):
        candidate = directory / LEDGER_NAME
        if candidate.is_file():
            return candidate
        if directory.parent == directory:
            break
        directory = directory.parent
    return None


@rule
class PragmaDebtChecker(Rule):
    """Pragma counts per rule never exceed the checked-in ledger."""

    rule_id = "PA004"
    title = "pragma-debt: # lint: allow= count per rule matches the ledger"

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        counts = count_pragmas(model)
        ledger_path = model.debt_path or find_ledger(model.root)
        if ledger_path is None or not ledger_path.is_file():
            if counts:
                total = sum(counts.values())
                yield self.file_diagnostic(
                    str(model.root / LEDGER_NAME),
                    "%d pragma suppression(s) in the tree but no %s "
                    "ledger authorizes them" % (total, LEDGER_NAME))
            return
        try:
            raw = json.loads(ledger_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            yield self.file_diagnostic(
                str(ledger_path),
                "ledger is unreadable or not valid JSON")
            return
        if not (isinstance(raw, dict)
                and all(isinstance(key, str)
                        and isinstance(value, int)
                        and not isinstance(value, bool)
                        for key, value in raw.items())):
            yield self.file_diagnostic(
                str(ledger_path),
                "ledger must map rule ids to integer pragma budgets")
            return
        ledger: Dict[str, int] = dict(raw)
        registered = {cls.rule_id for cls in ALL_RULES()}
        for rule_id in sorted(set(ledger) - registered):
            yield self.file_diagnostic(
                str(ledger_path),
                "ledger entry %s names no registered rule; remove it"
                % rule_id)
        for rule_id in sorted(set(counts) | set(ledger)):
            actual = counts.get(rule_id, 0)
            budget = ledger.get(rule_id, 0)
            if actual > budget:
                yield self.file_diagnostic(
                    str(ledger_path),
                    "pragma debt for %s grew to %d (ledger allows %d); "
                    "remove the suppression or consciously raise the "
                    "ratchet" % (rule_id, actual, budget))
            elif actual < budget:
                yield self.file_diagnostic(
                    str(ledger_path),
                    "ledger allows %d %s pragma(s) but only %d remain; "
                    "ratchet the ledger down to lock in the paydown"
                    % (budget, rule_id, actual))
