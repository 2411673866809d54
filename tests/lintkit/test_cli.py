"""CLI behavior: exit codes, rule selection, output formats."""

import json

import pytest

from repro.analysis import get_rule, run_analysis
from repro.analysis.cli import (EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                                main)

from ..analysis.test_checkers import RL_RULE_IDS
from .conftest import FIXTURES


def test_clean_file_exits_zero(capsys):
    # Every rule over a tree with nothing to report.
    code = main([str(FIXTURES / "rl006" / "good" / "engine")])
    assert code == EXIT_CLEAN
    assert "0 problem(s) found" in capsys.readouterr().out


def test_findings_exit_one_with_precise_locations(capsys):
    path = FIXTURES / "rl006" / "bad"
    code = main([str(path), "--rule", "RL006"])
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    # Every diagnostic line has the documented file:line:col: RULE shape.
    diag_lines = [line for line in out.splitlines() if " RL006 " in line]
    assert diag_lines
    for line in diag_lines:
        location, message = line.split(" RL006 ")
        assert message
        file_part, line_no, col_no = location.rstrip(":").rsplit(":", 2)
        assert file_part.endswith("bad/engine/clock.py")
        assert int(line_no) > 0 and int(col_no) >= 0


def test_rule_filter_is_case_insensitive(capsys):
    code = main([str(FIXTURES / "rl006" / "bad"), "--rule", "rl006"])
    assert code == EXIT_FINDINGS


def test_unknown_rule_exits_two(capsys):
    code = main(["--rule", "RL999"])
    assert code == EXIT_ERROR
    assert "unknown rule id" in capsys.readouterr().out


def test_missing_path_exits_two(capsys):
    code = main([str(FIXTURES / "does_not_exist")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().out


def test_syntax_error_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    code = main([str(tmp_path)])
    assert code == EXIT_ERROR
    assert "cannot parse" in capsys.readouterr().out


def test_json_format(capsys):
    code = main([str(FIXTURES / "rl006" / "bad"), "--rule", "RL006",
                 "--format", "json"])
    assert code == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["RL006"] == len(payload["diagnostics"]) > 0


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    # One registry, by id.
    assert [line.split()[0] for line in out.splitlines()] == RL_RULE_IDS


@pytest.mark.parametrize("rule_id, scoped_dir", [
    ("RL002", "geometry"),
    ("RL003", "strategies"),
    ("RL006", "engine"),
])
def test_scoped_rules_skip_out_of_scope_files(tmp_path, rule_id,
                                              scoped_dir, capsys):
    """A scoped rule ignores files outside its packages: scopes match
    the path relative to the root that was given, whatever tree it is."""
    bad_source = next((FIXTURES / rule_id.lower() / "bad").rglob(
        "*.py")).read_text()
    in_scope = tmp_path / scoped_dir
    in_scope.mkdir()
    (in_scope / "mod.py").write_text(bad_source)
    out_of_scope = tmp_path / "experiments"
    out_of_scope.mkdir()
    (out_of_scope / "mod.py").write_text(bad_source)

    report = run_analysis(root=tmp_path,
                          rule_classes=[get_rule(rule_id)])
    flagged_paths = {diag.path for diag in report.diagnostics}
    assert flagged_paths == {str(in_scope / "mod.py")}


def test_empty_directory_exits_two(tmp_path, capsys):
    """0 files checked must be an input error, not a silent green."""
    code = main([str(tmp_path)])
    assert code == EXIT_ERROR
    assert "no Python files to check" in capsys.readouterr().out

