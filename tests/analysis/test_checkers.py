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

#: The surviving ids; PA001, PA006, PA007, PA008 and PA010 are retired
#: (a runtime guard enforces each, docs/STATIC_ANALYSIS.md names it).
RL_RULE_IDS = ["RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]
PA_RULE_IDS = ["PA002", "PA003", "PA004", "PA005", "PA009"]

#: Expected diagnostic count per fixture tree (one per seeded shape).
EXPECTED_FIXTURE_COUNTS = {
    "PA002": 9,
    "PA003": 3,
    "PA004": 2,
    "PA005": 6,
    "PA009": 7,
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


class TestPA002:
    def test_names_every_drift_shape(self, fixture_root):
        messages = [d.message
                    for d in _run(fixture_root("pa002"), "PA002")]
        joined = "\n".join(messages)
        assert "'mystery' is not declared" in joined
        assert "not a declared event constant" in joined
        assert "EVENT_GHOST" in joined
        assert "'orphan' is incremented but no" in joined
        assert "'phantom' but nothing increments" in joined
        assert "undeclared event kind 'ghost_kind'" in joined
        assert "RECONCILE_DROPS references unknown Metrics field 'pongs'" \
            in joined
        # counter(..., deterministic=False) has nothing to reconcile to
        assert "jittery" not in joined

    def test_a_counter_named_after_a_metrics_field_is_a_second_ledger(
            self, fixture_root):
        """One finding for the copy, and not the coverage one on top:
        the cure is deleting the counter, not reconciling it."""
        about_pings = [d.message
                       for d in _run(fixture_root("pa002"), "PA002")
                       if "'pings'" in d.message]
        assert len(about_pings) == 1
        assert "second ledger" in about_pings[0]
        assert "Metrics.pings" in about_pings[0]

    def test_a_suffixed_counter_name_is_unresolvable(self, fixture_root):
        """``direction + "_drops"`` was how the drop copies were named;
        no table can cover a name known only by its tail."""
        messages = [d.message
                    for d in _run(fixture_root("pa002"), "PA002")]
        assert sum("not statically resolvable" in m for m in messages) == 1


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


class TestPA005:
    def test_names_every_blocking_shape(self, fixture_root):
        messages = [d.message
                    for d in _run(fixture_root("pa005"), "PA005")]
        joined = "\n".join(messages)
        assert "blocking time.sleep()" in joined
        assert "blocking queue.Queue.get()" in joined
        assert "blocking .recv()" in joined
        assert "blocking .read_text()" in joined
        assert "blocking subprocess.run()" in joined
        assert "blocking builtin open()" in joined

    def test_transitive_site_carries_the_call_chain(self, fixture_root):
        diagnostics = _run(fixture_root("pa005"), "PA005")
        transitive = [d for d in diagnostics
                      if d.path.endswith("helpers.py")]
        assert len(transitive) == 1
        assert "coroutine 'audit' via checksum() -> load_config()" \
            in transitive[0].message

    def test_executor_wrapped_call_is_exempt(self, fixture_root):
        """``slow_square`` blocks, but only ever runs in an executor."""
        messages = [d.message
                    for d in _run(fixture_root("pa005"), "PA005")]
        assert not any("slow_square" in m for m in messages)


class TestPA009:
    def test_names_every_leak_shape(self, fixture_root):
        messages = [d.message
                    for d in _run(fixture_root("pa009"), "PA009")]
        joined = "\n".join(messages)
        assert "socket 'sock' acquired in socket_never_closed" in joined
        assert ("file 'handle' acquired in file_early_return can "
                "reach a normal exit") in joined
        assert ("socket 'sock' acquired in socket_reraise can reach "
                "an uncaught-exception exit") in joined
        assert "task 'task' acquired in task_dropped_on_error" in joined
        assert "lock acquired in lock_gap" in joined
        assert "span acquired in span_without_guard" in joined
        assert ("decoder 'decoder' acquired in decoder_unfinished can "
                "reach a normal exit without a finish call") in joined

    def test_counterexamples_stay_clean(self, fixture_root):
        """try/finally, escape, helper-close and finish() all credit."""
        diagnostics = _run(fixture_root("pa009"), "PA009")
        assert all(d.path.endswith("leaky.py") for d in diagnostics)

    def test_findings_carry_the_leaking_line(self, fixture_root):
        for diag in _run(fixture_root("pa009"), "PA009"):
            assert "via line" in diag.message


class TestSuppression:
    def test_pa_pragma_suppresses_a_finding(self, tmp_path):
        """``# lint: allow=PA002`` on the offending line is honored."""
        telemetry = tmp_path / "telemetry"
        telemetry.mkdir()
        (telemetry / "events.py").write_text(
            'EVENT_FIELDS = {"ping": ("user",)}\n', encoding="utf-8")
        (telemetry / "facade.py").write_text(
            "def run(sink):\n"
            '    sink.emit("ping")\n'
            '    sink.emit("mystery")  # lint: allow=PA002\n',
            encoding="utf-8")
        assert _run(tmp_path, "PA002") == []
