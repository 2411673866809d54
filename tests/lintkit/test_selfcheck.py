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
from repro.analysis import ALL_RULES

SRC_ROOT = Path(repro.__file__).resolve().parent


def test_repo_source_is_lint_clean(shipped_report):
    # The file-local rules' share of the one shared run over the
    # package tree; tests/analysis/test_checkers.py reads all of it.
    rl_ids = [cls.rule_id for cls in ALL_RULES()
              if cls.rule_id.startswith("RL")]
    assert set(rl_ids) <= set(shipped_report.rule_ids)
    assert shipped_report.files_checked > 50, \
        "discovery should see the package"
    findings = [diag.render() for diag in shipped_report.diagnostics
                if diag.rule_id in rl_ids]
    assert not findings, "\n".join(findings)


def test_cli_self_check_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(SRC_ROOT)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT.parent), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 problem(s) found" in proc.stdout
