"""Diagnostics: the unit of checker output.

A diagnostic pins one rule violation to one source location.  The text
rendering (``file:line:col: RULE message``) and the JSON field set are
part of the tool's stable interface — tests assert on both, and CI
parses neither beyond the exit code, so changes here are breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One rule violation at one source location.

    Ordering is by location then rule id, which makes reports stable
    across runs and dict orderings.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RULE message``."""
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col,
                                    self.rule_id, self.message)

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-ready mapping (schema: see ``Report.to_json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
