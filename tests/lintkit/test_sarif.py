"""SARIF schema-shape regression tests.

A code-scanning upload renders descriptions and "learn more" links
from the rule metadata — these tests pin that every RL and PA rule
ships ``shortDescription``, ``fullDescription`` and a
``helpUri`` whose anchor resolves to a real heading in
``docs/STATIC_ANALYSIS.md``.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Diagnostic, Report
from repro.analysis.sarif import RULE_DOC_PATH, RuleMetadata, to_sarif

from ..analysis.test_checkers import PA_RULE_IDS, RL_RULE_IDS

DOC = Path(__file__).resolve().parents[2] / RULE_DOC_PATH


def _all_metadata():
    return [RuleMetadata.of(cls) for cls in ALL_RULES()]


def _doc_anchors():
    """GitHub-style slugs of every heading in the rule docs."""
    anchors = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        match = re.match(r"#+\s+(.*)", line)
        if match is None:
            continue
        heading = match.group(1).strip()
        slug = re.sub(r"[^\w\- ]", "", heading.lower())
        anchors.add(slug.replace(" ", "-"))
    return anchors


class TestRuleMetadata:
    def test_catalogue_covers_every_rule_and_checker(self):
        ids = [meta.rule_id for meta in _all_metadata()]
        assert len(ids) == len(set(ids))
        assert [i for i in ids if i.startswith("RL")] == RL_RULE_IDS
        assert [i for i in ids if i.startswith("PA")] == PA_RULE_IDS

    @pytest.mark.parametrize("meta", _all_metadata(),
                             ids=lambda meta: meta.rule_id)
    def test_metadata_is_fully_populated(self, meta):
        assert meta.title
        assert ":" in meta.title, "title must be 'slug: description'"
        assert meta.slug == meta.title.split(":")[0]
        assert meta.description and "\n" not in meta.description
        assert meta.help_uri.startswith(RULE_DOC_PATH + "#")

    @pytest.mark.parametrize("meta", _all_metadata(),
                             ids=lambda meta: meta.rule_id)
    def test_help_uri_anchor_resolves_in_the_docs(self, meta):
        anchor = meta.help_uri.split("#", 1)[1]
        assert anchor in _doc_anchors(), (
            "helpUri anchor %r has no matching heading in %s"
            % (anchor, RULE_DOC_PATH))


class TestSarifShape:
    def _payload(self):
        report = Report(
            [Diagnostic(path="src/x.py", line=3, col=1,
                        rule_id="RL002", message="boom")],
            files_checked=1, rule_ids=["RL002"])
        return json.loads(to_sarif(report))

    def test_schema_and_version(self):
        payload = self._payload()
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")

    def test_every_rule_carries_full_metadata(self):
        driver = self._payload()["runs"][0]["tool"]["driver"]
        assert driver["informationUri"] == RULE_DOC_PATH
        assert len(driver["rules"]) == len(RL_RULE_IDS + PA_RULE_IDS)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["helpUri"].startswith(RULE_DOC_PATH + "#")
            assert rule["name"]
            assert rule["defaultConfiguration"] == {"level": "error"}

    def test_base_uri_prefixes_links(self):
        report = Report([], files_checked=0, rule_ids=[])
        payload = json.loads(to_sarif(
            report, base_uri="https://example.test/repo/blob/main/"))
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["informationUri"].startswith("https://")
        assert all(rule["helpUri"].startswith("https://")
                   for rule in driver["rules"])

    def test_result_location_shape(self):
        result = self._payload()["runs"][0]["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"] == {"startLine": 3,
                                      "startColumn": 2}
