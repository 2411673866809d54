"""CLI contract of ``repro check``: formats, selection, exit codes.

The whole-program half; ``tests/lintkit/test_cli.py`` drives the same
command over the RL fixture trees.
"""

import json
import shutil

import pytest

from repro.analysis.runner import package_root
from repro.cli import main

from .conftest import FIXTURES
from .test_checkers import PA_RULE_IDS, RL_RULE_IDS

FIXTURE = str(FIXTURES / "pa002")


class TestExitCodes:
    def test_shipped_tree_exits_clean(self, shipped_report):
        # The exit code is the report's verdict (``run_check_command``);
        # tests/lintkit/test_selfcheck.py runs the command itself.
        assert shipped_report.ok
        assert shipped_report.render_text().endswith("0 problem(s) found")

    @pytest.mark.parametrize("rule_id", PA_RULE_IDS)
    def test_fixture_exits_with_findings(self, rule_id, capsys):
        root = str(FIXTURES / rule_id.lower())
        assert main(["check", root, "--rule", rule_id]) == 1
        assert rule_id in capsys.readouterr().out

    def test_missing_root_exits_two(self, capsys):
        assert main(["check", "/no/such/tree"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["check", "--rule", "PA999"]) == 2
        assert "unknown rule id" in capsys.readouterr().out

    def test_lowercase_rule_id_accepted(self):
        assert main(["check", FIXTURE, "--rule", "pa002"]) == 1

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (\n", encoding="utf-8")
        assert main(["check", str(tmp_path)]) == 2
        assert "cannot parse" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["lint"],
        ["analyze"],
        ["check", "--jobs", "2"],
    ], ids=" ".join)
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        """Replaced, not aliased: the two old subcommands and the
        ``--jobs`` knob are argparse errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_a_copied_tree_is_checked_like_the_installed_one(
            self, tmp_path, capsys):
        """Scopes match the path relative to the root that was given,
        not to the installed package: on a copy of the tree every
        scoped rule still runs, so a seeded leak cannot read "0
        problem(s) found"."""
        copy = tmp_path / "copy" / "repro"
        shutil.copytree(package_root(), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "strategies" / "periodic.py", "a",
                  encoding="utf-8") as handle:
            handle.write("\n\ndef _leak(server):\n"
                         "    return server.metrics\n")
        assert main(["check", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "strategies/periodic.py" in out and " RL008 " in out
        assert out.rstrip().endswith("1 problem(s) found")


class TestListRules:
    def test_lists_all_checkers(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == (
            RL_RULE_IDS + PA_RULE_IDS)


class TestFormats:
    def test_json_report(self, capsys):
        assert main(["check", FIXTURE, "--rule", "PA002",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["PA002"] == 9
        assert all(diag["rule"] == "PA002"
                   for diag in payload["diagnostics"])

    def test_sarif_report(self, capsys):
        assert main(["check", FIXTURE, "--rule", "PA002",
                     "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        # The full catalogue is listed, not just the fired rules.
        rule_ids = [rule["id"]
                    for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == RL_RULE_IDS + PA_RULE_IDS
        assert len(run["results"]) == 9
        first = run["results"][0]
        assert first["ruleId"] == "PA002"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] > 0

    def test_sarif_base_uri_makes_links_absolute(self, capsys):
        assert main(["check", FIXTURE, "--rule", "PA002",
                     "--format", "sarif", "--sarif-base-uri",
                     "https://example.test/blob/main/"]) == 1
        payload = json.loads(capsys.readouterr().out)
        driver = payload["runs"][0]["tool"]["driver"]
        assert driver["informationUri"].startswith(
            "https://example.test/")
        assert all(rule["helpUri"].startswith("https://example.test/")
                   for rule in driver["rules"])

    def test_sarif_clean_tree_has_no_results(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("X = 1\n", encoding="utf-8")
        assert main(["check", str(tmp_path), "--rule", "PA002",
                     "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []
