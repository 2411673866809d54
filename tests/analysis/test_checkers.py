"""The registry and the gate: every rule is documented, the tree is clean.

The rule-by-rule fixture tests live in ``tests/lintkit/test_rules.py``
(each rule's ``bad``/``good`` trees under ``fixtures/<id>/``) and the
seeded defects in the shipped code in ``test_session_mutation.py``.
The shipped tree itself must stay clean — ``repro check`` gates CI.
"""

from pathlib import Path

from repro.analysis import ALL_RULES

#: The surviving ids; RL001, RL005, PA001-PA010 are retired (a guard
#: enforces each or its subject is gone; docs/STATIC_ANALYSIS.md says
#: which).
RL_RULE_IDS = ["RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]

#: The rule catalogue every registered rule is documented in.
RULE_DOC = (Path(__file__).resolve().parents[2] / "docs"
            / "STATIC_ANALYSIS.md")


def test_registry_is_complete():
    """One registry, by id, each rule with its ``### ID — slug``
    section in the rule catalogue."""
    assert [cls.rule_id for cls in ALL_RULES()] == RL_RULE_IDS
    headings = set(RULE_DOC.read_text(encoding="utf-8").splitlines())
    for cls in ALL_RULES():
        slug = cls.title.split(":", 1)[0].strip()
        assert "### %s — %s" % (cls.rule_id, slug) in headings, (
            "%s has no section in %s" % (cls.rule_id, RULE_DOC.name))


def test_shipped_tree_is_clean(shipped_report):
    """The gate itself: ``repro check src/repro`` exits 0."""
    assert shipped_report.ok, "\n" + shipped_report.render_text()
