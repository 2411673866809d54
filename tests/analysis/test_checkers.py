"""Per-rule fixture tests: every PA rule fires on its seeded tree.

The whole-program half of ``tests/lintkit/test_rules.py``: each rule
has a miniature project under ``fixtures/<id>/`` seeding every
violation shape the rule knows, and the expected diagnostic count is
pinned so a rule silently going blind on one shape fails loudly.  The
shipped tree itself must stay clean — ``repro check`` gates CI.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (ALL_RULES, ProjectModel, get_rule,
                            run_analysis)
from repro.analysis.rules.pa004_debt import count_pragmas, find_ledger

#: The surviving ids; PA001, PA002 and PA005-PA010 are
#: retired (a runtime guard enforces each, docs/STATIC_ANALYSIS.md names
#: it).
RL_RULE_IDS = ["RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]
PA_RULE_IDS = ["PA003", "PA004"]

#: Expected diagnostic count per fixture tree (one per seeded shape).
EXPECTED_FIXTURE_COUNTS = {
    "PA003": 3,
    "PA004": 2,
}


def _run(root, rule_id):
    report = run_analysis(root=root,
                          rule_classes=[get_rule(rule_id)])
    return report.diagnostics


def test_registry_is_complete():
    """One registry: the RL rules, then the PA rules, by number."""
    assert [cls.rule_id for cls in ALL_RULES()] \
        == RL_RULE_IDS + PA_RULE_IDS


@pytest.mark.parametrize("rule_id", PA_RULE_IDS)
def test_fixture_tree_is_flagged(fixture_root, rule_id):
    diagnostics = _run(fixture_root(rule_id.lower()), rule_id)
    assert len(diagnostics) == EXPECTED_FIXTURE_COUNTS[rule_id]
    assert all(diag.rule_id == rule_id for diag in diagnostics)
    for diag in diagnostics:
        assert diag.line > 0
        assert diag.col >= 0
        assert diag.message


def test_shipped_tree_is_clean(shipped_report):
    """The gate itself: ``repro check src/repro`` exits 0."""
    assert shipped_report.ok, "\n" + shipped_report.render_text()


class TestPA003:
    def test_names_every_write_shape(self, fixture_root):
        messages = [d.message
                    for d in _run(fixture_root("pa003"), "PA003")]
        joined = "\n".join(messages)
        assert "mutates module-level container 'CACHE' of state.py" \
            in joined                          # cross-module mutator
        assert "writes module-level container 'TABLE'" in joined
        assert "rebinds module global 'SEED'" in joined

    def test_findings_anchor_to_the_worker_module(self, fixture_root):
        diagnostics = _run(fixture_root("pa003"), "PA003")
        assert all(diag.path.endswith("worker.py")
                   for diag in diagnostics)


class TestPA004:
    def test_grew_and_stale_entries_both_flagged(self, fixture_root):
        messages = [d.message
                    for d in _run(fixture_root("pa004"), "PA004")]
        joined = "\n".join(messages)
        assert "pragma debt for RL002 grew to 1 (ledger allows 0)" \
            in joined
        assert "ledger allows 2 RL008 pragma(s) but only 0 remain" \
            in joined

    def test_findings_anchor_to_the_ledger(self, fixture_root):
        diagnostics = _run(fixture_root("pa004"), "PA004")
        assert all(diag.path.endswith("lint_debt.json")
                   for diag in diagnostics)

    def test_docstring_mention_is_not_debt(self, fixture_root):
        """The fixture docstring contains the pragma syntax; only the
        real comment counts."""
        model = ProjectModel.build(fixture_root("pa004"))
        assert count_pragmas(model) == {"RL002": 1}

    def test_matching_ledger_is_clean(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "X = 1  # lint: allow=RL002\n", encoding="utf-8")
        (tmp_path / "lint_debt.json").write_text(
            '{"RL002": 1}\n', encoding="utf-8")
        assert _run(tmp_path, "PA004") == []

    def test_pragmas_without_ledger_are_flagged(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "X = 1  # lint: allow=RL002\n", encoding="utf-8")
        diagnostics = _run(tmp_path, "PA004")
        # tmp_path has no ledger anywhere within the search depth.
        assert find_ledger(tmp_path) is None
        assert len(diagnostics) == 1
        assert "no lint_debt.json ledger authorizes" \
            in diagnostics[0].message

    def test_invalid_ledger_is_flagged(self, tmp_path):
        (tmp_path / "mod.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "lint_debt.json").write_text(
            '{"RL002": "three"}\n', encoding="utf-8")
        diagnostics = _run(tmp_path, "PA004")
        assert len(diagnostics) == 1
        assert "integer pragma budgets" in diagnostics[0].message

    def test_debt_path_override(self, tmp_path, fixture_root):
        """--debt points PA004 at an explicit ledger file."""
        ledger = tmp_path / "other_ledger.json"
        ledger.write_text('{"RL002": 1}\n', encoding="utf-8")
        report = run_analysis(root=fixture_root("pa004"),
                              rule_classes=[get_rule("PA004")],
                              debt_path=ledger)
        assert report.ok

    def test_unknown_ledger_key_is_flagged(self, tmp_path):
        """A retired rule takes its ledger entry with it."""
        (tmp_path / "mod.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "lint_debt.json").write_text(
            '{"RL002": 0, "RL099": 0}\n', encoding="utf-8")
        diagnostics = _run(tmp_path, "PA004")
        assert [d.message for d in diagnostics] == [
            "ledger entry RL099 names no registered rule; remove it"]
        assert diagnostics[0].path.endswith("lint_debt.json")

    def test_shipped_ledger_names_every_rule_at_zero(self):
        ledger = json.loads(
            (Path(__file__).resolve().parents[2]
             / "lint_debt.json").read_text(encoding="utf-8"))
        assert ledger == {cls.rule_id: 0 for cls in ALL_RULES()}


class TestSuppression:
    def test_pa_pragma_suppresses_a_finding(self, tmp_path):
        """``# lint: allow=PA003`` on the offending line is honored."""
        (tmp_path / "pool.py").write_text(
            "CACHE = []\n\n\n"
            "def work(index):\n"
            "    CACHE.append(index)\n\n\n"
            "def run(pool):\n"
            "    return pool.submit(work, 1)\n", encoding="utf-8")
        assert len(_run(tmp_path, "PA003")) == 1
        source = (tmp_path / "pool.py").read_text(encoding="utf-8")
        (tmp_path / "pool.py").write_text(source.replace(
            "    CACHE.append(index)\n",
            "    CACHE.append(index)  # lint: allow=PA003\n"),
            encoding="utf-8")
        assert _run(tmp_path, "PA003") == []
