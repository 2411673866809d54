"""Per-rule fixture tests: every PA rule fires on its seeded tree.

The whole-program half of ``tests/lintkit/test_rules.py``: each rule
has a miniature project under ``fixtures/<id>/`` seeding every
violation shape the rule knows, and the expected diagnostic count is
pinned so a rule silently going blind on one shape fails loudly.  The
shipped tree itself must stay clean — ``repro check`` gates CI.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, get_rule, run_analysis

#: The surviving ids; PA001, PA002 and PA004-PA010 are
#: retired (a guard enforces each or its subject is gone;
#: docs/STATIC_ANALYSIS.md says which).
RL_RULE_IDS = ["RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]
PA_RULE_IDS = ["PA003"]

#: Expected diagnostic count per fixture tree (one per seeded shape).
EXPECTED_FIXTURE_COUNTS = {
    "PA003": 3,
}

#: The rule catalogue every registered rule is documented in.
RULE_DOC = (Path(__file__).resolve().parents[2] / "docs"
            / "STATIC_ANALYSIS.md")


def _run(root, rule_id):
    report = run_analysis(root=root,
                          rule_classes=[get_rule(rule_id)])
    return report.diagnostics


def test_registry_is_complete():
    """One registry: the RL rules, then the PA rules, by number, each
    with its ``### ID — slug`` section in the rule catalogue."""
    assert [cls.rule_id for cls in ALL_RULES()] \
        == RL_RULE_IDS + PA_RULE_IDS
    headings = set(RULE_DOC.read_text(encoding="utf-8").splitlines())
    for cls in ALL_RULES():
        slug = cls.title.split(":", 1)[0].strip()
        assert "### %s — %s" % (cls.rule_id, slug) in headings, (
            "%s has no section in %s" % (cls.rule_id, RULE_DOC.name))


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
