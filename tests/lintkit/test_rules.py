"""Per-rule fixture tests: every RL rule fires on bad code, not on good.

Each rule has two miniature trees under ``fixtures/<id>/``: ``bad/``
seeds every shape the rule knows at a path inside its scope; ``good/``
holds the sanctioned spellings there *and* the bad file verbatim at a
path outside the scope (or at an exempt path), so scoping is exercised
rather than bypassed.
"""

import pytest

from repro.analysis import ALL_RULES, get_rule, run_analysis

RULE_IDS = ["RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]

#: Expected diagnostic count in each rule's bad fixture (pinned so a
#: rule silently going blind on one shape fails loudly).
EXPECTED_BAD_COUNTS = {
    "RL002": 3,
    "RL003": 2,
    "RL004": 4,
    "RL006": 3,
    "RL007": 3,
    "RL008": 4,
}


@pytest.fixture
def lint_fixture(fixture_root):
    """Run one rule over one of its fixture trees (``bad``/``good``)."""

    def _lint(rule_id, tree):
        report = run_analysis(root=fixture_root(rule_id.lower()) / tree,
                              rule_classes=[get_rule(rule_id)])
        return report.diagnostics

    return _lint


def test_registry_is_complete():
    assert [cls.rule_id for cls in ALL_RULES()][:len(RULE_IDS)] == RULE_IDS


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_is_flagged(lint_fixture, rule_id):
    diagnostics = lint_fixture(rule_id, "bad")
    assert len(diagnostics) == EXPECTED_BAD_COUNTS[rule_id]
    assert all(diag.rule_id == rule_id for diag in diagnostics)
    # Diagnostics carry a precise location and a non-empty message.
    for diag in diagnostics:
        assert diag.line > 0
        assert diag.col >= 0
        assert diag.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(lint_fixture, rule_id):
    assert lint_fixture(rule_id, "good") == []


def test_diagnostic_render_format(lint_fixture):
    diag = lint_fixture("RL006", "bad")[0]
    rendered = diag.render()
    # file:line:col: RULE message — the documented stable shape.
    assert rendered.startswith(diag.path)
    assert (":%d:%d: RL006 " % (diag.line, diag.col)) in rendered


def test_rl002_flags_each_shape(lint_fixture):
    lines = sorted(d.line for d in lint_fixture("RL002", "bad"))
    assert len(lines) == 3  # literal, annotated pair, name-vs-int


def test_rl008_names_attribute_and_receiver(lint_fixture):
    messages = " ".join(d.message
                        for d in lint_fixture("RL008", "bad"))
    assert "'metrics'" in messages
    assert "'_state'" in messages
    assert "'client.server'" in messages
    assert "transport boundary" in messages


@pytest.mark.parametrize("rule_id", ["RL004", "RL006"])
def test_serving_modules_are_in_scope(rule_id):
    """The framed serving path is worker-reachable, wallclock-sensitive
    code: RL004 and RL006 must cover protocol (framing) and net (daemon,
    sockets) alongside the engine packages."""
    rule = next(cls for cls in ALL_RULES() if cls.rule_id == rule_id)()
    for path in ("protocol/framing.py", "net/daemon.py",
                 "net/sockets.py"):
        assert rule.applies_to(path), (rule_id, path)
    assert not rule.applies_to("cli.py")
