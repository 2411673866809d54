"""Pragma parsing and suppression behavior."""

from pathlib import Path

from repro.analysis import ProjectModel, get_rule, run_analysis
from repro.analysis.pragmas import collect_pragmas, is_allowed
from repro.analysis.rules.pa004_debt import count_pragmas


#: ``strategies/`` is in scope for both RL006 and RL008.
_BOTH_SCOPES = "strategies/sneaky.py"


def _tree(root: Path, rel_path: str, source: str) -> Path:
    """A one-file tree with the file at a path inside a rule's scope."""
    path = root / rel_path
    path.parent.mkdir(parents=True)
    path.write_text(source)
    return root


def test_collect_single_rule():
    allowed = collect_pragmas("x = 1  # lint: allow=RL002\n")
    assert allowed == {1: frozenset({"RL002"})}


def test_collect_multiple_rules_and_spacing():
    allowed = collect_pragmas("a\nb  #lint: allow=RL003 , RL004\n")
    assert allowed == {2: frozenset({"RL003", "RL004"})}


def test_non_pragma_comments_ignored():
    assert collect_pragmas("# lint me gently\n# allow=RL002\n") == {}


def test_is_allowed_is_line_and_rule_scoped():
    allowed = {3: frozenset({"RL002"})}
    assert is_allowed(allowed, 3, "RL002")
    assert not is_allowed(allowed, 3, "RL003")
    assert not is_allowed(allowed, 4, "RL002")


def test_pragma_suppresses_diagnostic(tmp_path: Path):
    source = "def f(x: float) -> bool:\n    return x == 0.0\n"
    flagged = _tree(tmp_path / "flagged", "geometry/mod.py", source)
    excused = _tree(tmp_path / "excused", "geometry/mod.py",
                    source.replace("x == 0.0",
                                   "x == 0.0  # lint: allow=RL002"))

    rule_classes = [get_rule("RL002")]
    assert not run_analysis(flagged, rule_classes).ok
    assert run_analysis(excused, rule_classes).ok


def test_pragma_only_covers_its_own_line(tmp_path: Path):
    root = _tree(
        tmp_path, "geometry/partial.py",
        "def f(x: float, y: float) -> bool:\n"
        "    a = x == 0.0  # lint: allow=RL002\n"
        "    b = y == 0.0\n"
        "    return a and b\n")
    report = run_analysis(root, [get_rule("RL002")])
    assert [diag.line for diag in report.diagnostics] == [3]


def test_multi_rule_pragma_suppresses_both(tmp_path: Path):
    """One line can violate two rules; one pragma may excuse both."""
    source = ("import time\n"
              "class SneakyStrategy:\n"
              "    def on_sample(self, client, sample):\n"
              "        return client.server.metrics.at(time.time())%s\n")
    rule_classes = [get_rule("RL006"), get_rule("RL008")]

    bare = _tree(tmp_path / "bare", _BOTH_SCOPES, source % "")
    report = run_analysis(bare, rule_classes)
    assert sorted(d.rule_id for d in report.diagnostics) == \
        ["RL006", "RL008"]

    excused = _tree(tmp_path / "excused", _BOTH_SCOPES,
                    source % "  # lint: allow=RL006,RL008")
    assert run_analysis(excused, rule_classes).ok


def test_multi_rule_pragma_only_covers_named_rules(tmp_path: Path):
    partial = _tree(
        tmp_path, _BOTH_SCOPES,
        "import time\n"
        "class SneakyStrategy:\n"
        "    def on_sample(self, client, sample):\n"
        "        return client.server.metrics.at(time.time())"
        "  # lint: allow=RL006\n")
    report = run_analysis(partial,
                          [get_rule("RL006"), get_rule("RL008")])
    assert [d.rule_id for d in report.diagnostics] == ["RL008"]


def test_pragma_in_a_string_neither_suppresses_nor_counts(tmp_path: Path):
    """One table for both readers: what the runner suppresses from is
    what PA004 counts, and both read comments, not raw lines."""
    root = _tree(
        tmp_path, "telemetry/debug.py",
        "def dump(x):\n"
        '    print("debug  # lint: allow=RL007", x)\n'
        '    print("debug", x)\n')
    report = run_analysis(root, [get_rule("RL007")])
    assert [diag.line for diag in report.diagnostics] == [2, 3]
    assert count_pragmas(ProjectModel.build(root)) == {}


def test_trailing_comment_suppresses_and_counts_once_per_rule(
        tmp_path: Path):
    root = _tree(
        tmp_path, "telemetry/debug.py",
        "def dump(x):\n"
        '    print("debug", x)  # lint: allow=RL007,RL004\n'
        '    print("debug", x)\n')
    report = run_analysis(root, [get_rule("RL007")])
    assert [diag.line for diag in report.diagnostics] == [3]
    assert count_pragmas(ProjectModel.build(root)) \
        == {"RL007": 1, "RL004": 1}
