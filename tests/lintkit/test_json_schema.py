"""The JSON report is a stable machine interface; assert its schema."""

import json

from repro.analysis import get_rule, run_analysis
from repro.analysis.runner import SCHEMA_VERSION

from .conftest import FIXTURES


def _report_payload(rule_id: str, name: str) -> dict:
    report = run_analysis(root=FIXTURES / rule_id.lower() / name,
                          rule_classes=[get_rule(rule_id)])
    payload = json.loads(report.to_json())
    return payload


def test_top_level_schema():
    payload = _report_payload("RL006", "bad")
    assert set(payload) == {"version", "files_checked", "diagnostics",
                            "counts"}
    assert payload["version"] == SCHEMA_VERSION
    assert payload["files_checked"] == 1


def test_diagnostic_entry_schema():
    payload = _report_payload("RL006", "bad")
    assert payload["diagnostics"], "bad fixture must produce diagnostics"
    for entry in payload["diagnostics"]:
        assert set(entry) == {"path", "line", "col", "rule", "message"}
        assert isinstance(entry["path"], str)
        assert isinstance(entry["line"], int) and entry["line"] > 0
        assert isinstance(entry["col"], int) and entry["col"] >= 0
        assert entry["rule"] == "RL006"
        assert isinstance(entry["message"], str) and entry["message"]


def test_counts_cover_selected_rules():
    payload = _report_payload("RL006", "bad")
    assert payload["counts"] == {"RL006": len(payload["diagnostics"])}


def test_clean_run_reports_empty_diagnostics():
    payload = _report_payload("RL006", "good")
    assert payload["diagnostics"] == []
    assert payload["counts"] == {"RL006": 0}


def test_diagnostics_are_sorted():
    payload = _report_payload("RL003", "bad")
    locations = [(e["path"], e["line"], e["col"])
                 for e in payload["diagnostics"]]
    assert locations == sorted(locations)
