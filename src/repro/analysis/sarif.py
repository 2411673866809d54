"""SARIF 2.1.0 serialization of a ``repro check`` report.

SARIF (Static Analysis Results Interchange Format) is the exchange
format CI forges understand natively — uploading a SARIF file turns
diagnostics into inline review annotations.

Every rule ships its full metadata: the one-line title as
``shortDescription``, the first paragraph of the rule class's
docstring as ``fullDescription``, and a ``helpUri`` pointing at the
rule's section of ``docs/STATIC_ANALYSIS.md`` — so a code-scanning
upload renders a description and a "learn more" link instead of a bare
rule id.  The anchor scheme mirrors GitHub's heading slugging of
``### RL002 — float-equality`` style headings; the docs test pins
that every generated anchor resolves to a real heading.

The output is otherwise deliberately minimal — one run, one driver,
one result per diagnostic with a single physical location — which is
the subset every SARIF consumer supports.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Type

from .base import ALL_RULES, Rule
from .runner import Report

#: The SARIF version and schema this serializer emits.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Where the rule catalogue is documented, relative to the repo root.
RULE_DOC_PATH = "docs/STATIC_ANALYSIS.md"
#: The SARIF driver name.
TOOL_NAME = "repro-check"


@dataclass(frozen=True)
class RuleMetadata:
    """Everything SARIF wants to say about one rule."""

    rule_id: str
    #: ``"slug: one-line description"`` — the rule's title.
    title: str
    #: Full prose description (first docstring paragraph).
    description: str

    @property
    def slug(self) -> str:
        """The short rule name (the part of the title before ``:``)."""
        return self.title.split(":", 1)[0].strip()

    @property
    def help_uri(self) -> str:
        """Anchor into the rule's docs section.

        Matches GitHub's slugging of the documented heading
        ``### RL002 — float-equality`` (lowercase, the em-dash
        dropped, spaces to hyphens): ``rl002--float-equality``.
        """
        return "%s#%s--%s" % (RULE_DOC_PATH, self.rule_id.lower(),
                              self.slug)

    @classmethod
    def of(cls, rule_class: Type[Rule]) -> "RuleMetadata":
        """Metadata for a rule class, docstring included."""
        doc = inspect.getdoc(rule_class) or rule_class.title
        first_paragraph = doc.split("\n\n", 1)[0].replace("\n", " ")
        return cls(rule_id=rule_class.rule_id, title=rule_class.title,
                   description=first_paragraph)


def to_sarif(report: Report, base_uri: Optional[str] = None) -> str:
    """Serialize a report as a SARIF 2.1.0 JSON document.

    The driver lists the full rule catalogue — not just the rules that
    ran or fired — so consumers can render "0 of N rules failing"
    dashboards.
    """
    rules = [RuleMetadata.of(cls) for cls in ALL_RULES()]
    driver: Dict[str, object] = {
        "name": TOOL_NAME,
        "informationUri": (base_uri or "") + RULE_DOC_PATH,
        "rules": [{
            "id": meta.rule_id,
            "name": meta.slug,
            "shortDescription": {"text": meta.title},
            "fullDescription": {"text": meta.description},
            "helpUri": (base_uri or "") + meta.help_uri,
            "defaultConfiguration": {"level": "error"},
        } for meta in rules],
    }
    results: List[Mapping[str, object]] = []
    for diag in report.diagnostics:
        results.append({
            "ruleId": diag.rule_id,
            "level": "error",
            "message": {"text": diag.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.path},
                    "region": {"startLine": diag.line,
                               "startColumn": diag.col + 1},
                },
            }],
        })
    payload: Dict[str, object] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
