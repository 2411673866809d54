"""CLI contract of ``repro check``: formats, selection, exit codes.

Over the shipped tree, a copy of it and RL004's bad fixture;
``tests/lintkit/test_cli.py`` drives the same command over the other
fixture trees.
"""

import json
import shutil

import pytest

from repro.analysis.runner import package_root
from repro.cli import main

from .conftest import FIXTURES
from .test_checkers import RL_RULE_IDS

FIXTURE = str(FIXTURES / "rl004" / "bad")


class TestExitCodes:
    def test_shipped_tree_exits_clean(self, shipped_report):
        # The exit code is the report's verdict (``run_check_command``);
        # tests/lintkit/test_selfcheck.py runs the command itself.
        assert shipped_report.ok
        assert shipped_report.render_text().endswith("0 problem(s) found")

    def test_missing_root_exits_two(self, capsys):
        assert main(["check", "/no/such/tree"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        # A retired id is unknown: PA003 went with the whole-program
        # model.
        assert main(["check", "--rule", "PA003"]) == 2
        assert "unknown rule id" in capsys.readouterr().out

    def test_lowercase_rule_id_accepted(self):
        assert main(["check", FIXTURE, "--rule", "rl004"]) == 1

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (\n", encoding="utf-8")
        assert main(["check", str(tmp_path)]) == 2
        assert "cannot parse" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["lint"],
        ["analyze"],
        ["check", "--jobs", "2"],
        ["check", "--debt", "x"],
        ["check", "--format", "sarif"],
        ["check", "--sarif-base-uri", "u"],
    ], ids=" ".join)
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        """Replaced or removed, not aliased: the two old subcommands,
        the ``--jobs`` knob, the pragma-debt ledger's ``--debt`` and
        the SARIF format with its base URI are argparse errors."""
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
        assert [line.split()[0] for line in lines] == RL_RULE_IDS


class TestFormats:
    def test_json_report(self, capsys):
        assert main(["check", FIXTURE, "--rule", "RL004",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RL004": 4}
        assert all(diag["rule"] == "RL004"
                   for diag in payload["diagnostics"])

