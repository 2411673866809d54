"""Self-check: the repo's own source tree passes every rule.

This is the checker's reason to exist — the invariants hold on the code
as written, and any regression (a new float ``==`` in geometry, a
module-global write in worker-reachable code) fails this test before it
fails CI.
"""

import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis import ALL_RULES, run_analysis

SRC_ROOT = Path(repro.__file__).resolve().parent


def test_repo_source_is_lint_clean():
    # Default root: the repro package tree.  The file-local rules only;
    # tests/analysis/test_checkers.py runs all 18 over the same tree.
    report = run_analysis(rule_classes=[
        cls for cls in ALL_RULES() if cls.rule_id.startswith("RL")])
    assert report.files_checked > 50, "discovery should see the package"
    assert report.ok, "\n" + report.render_text()


def test_cli_self_check_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(SRC_ROOT)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT.parent), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 problem(s) found" in proc.stdout
