"""The retired rules stay retired only while their runtime guards hold.

RL001 (frozen geometry), RL005 (the ``SafeRegion`` contract), PA001
(protocol exhaustiveness), PA006 (cross-thread races), PA007 (task
lifecycle), PA008 (session conformance) and PA010 (downlink
causality) were deleted from the checker because a guard that holds
by construction already catches their defects: frozen geometry types,
the abstract ``SafeRegion``, ``verify_field_layouts`` inside every
codec built, the daemon objects' refusal of writes from a thread
other than their owner's, the sanitizer's task-leak check at
``aclose()``, the daemon's dispatch through the session table (held
to the spec by the socket conformance suite), and the wire goldens
plus the accuracy contract.  PA008's row restates its
last seed against that dispatch.  Each row below is the defect the
rule was last seeded with (``test_session_mutation.py`` held one per
rule) and the test that catches it without the checker.  The row is
applied to a copy of ``src/repro`` and that one test is run against the
copy in a subprocess; it must fail, with the guard's own words.

A row costs about two seconds, so tier-1 runs the first one only and
``REPRO_SANITIZE=1`` (CI's ``sanitize-smoke`` job) runs them all — see
:mod:`tests.budget`.  ``docs/STATIC_ANALYSIS.md`` ("Retired rules")
names each guard.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis.runner import package_root

from ..budget import examples

REPO = Path(__file__).resolve().parents[2]


class Retired(NamedTuple):
    """One retired rule: its last seed and the test that catches it."""

    rule_id: str
    #: The shipped file that is edited (package-relative).
    target: str
    old: str
    new: str
    #: The catching test, as pytest addresses it from the repo root.
    test_id: str
    #: Must appear in that test's failure output.
    fragment: str


RETIRED = (
    Retired("RL001", "geometry/rect.py",
            "        return Rect(self.min_x + dx, self.min_y + dy,\n"
            "                    self.max_x + dx, self.max_y + dy)\n",
            "        self.min_x += dx  # 'saves an allocation'\n"
            "        return self\n",
            "tests/geometry/test_rect.py::TestCombination::test_translated",
            "FrozenInstanceError"),
    Retired("RL005", "saferegion/bitmap.py",
            "    def size_bits(self) -> int:\n"
            "        return self.bitmap.bit_length()\n\n",
            "",
            "tests/saferegion/test_bitmap_cost.py::"
            "test_sizing_a_bitmap_downlink_does_no_pyramid_work",
            "abstract method size_bits"),
    Retired("PA001", "protocol/wire.py",
            '"position.y", "heading", "speed"),\n'
            '    "RegionExitReport"',
            '"position.y", "speed", "heading"),\n'
            '    "RegionExitReport"',
            "tests/engine/test_dynamic.py::TestDynamicAccuracy::"
            "test_all_strategies_catch_mid_run_installs",
            "LocationReport layout orders fields"),
    Retired("PA006", "net/daemon.py",
            "            self._started.set_result("
            "(asyncio.get_running_loop(), port))\n",
            "            self.port = port\n"
            "            self._started.set_result("
            "(asyncio.get_running_loop(), port))\n",
            "tests/net/test_daemon.py::TestRequestReply::test_tcp_roundtrip",
            "DaemonThread.port written from thread 'repro-alarm-daemon'; "
            "the object belongs to thread 'MainThread'"),
    Retired("PA007", "net/daemon.py",
            "            self._watchdog = asyncio.create_task(\n",
            "            asyncio.create_task(\n",
            "tests/net/test_daemon.py::TestSanitizedServing::"
            "test_blocking_call_on_the_loop_is_caught_at_close",
            "task leak at daemon close"),
    Retired("PA008", "net/daemon.py",
            "                    elif kind is FrameKind.SHUTDOWN:\n",
            "                    elif kind is FrameKind.SHUTDOWN:\n"
            "                        if state == STATE_AWAIT_HELLO:\n"
            "                            raise FramingError(\n"
            "                                \"SHUTDOWN before the HELLO "
            "handshake\")\n",
            "tests/net/test_session_conformance.py::"
            "test_frame_gets_the_spec_answer[AWAIT_HELLO-SHUTDOWN-"
            "well-formed]",
            "AWAIT_HELLO SHUTDOWN well-formed: the spec answers nothing, "
            "the daemon sent ERROR"),
    Retired("PA010", "strategies/safeperiod.py",
            "            if isinstance(message, InstallSafePeriod):\n",
            "            if message is not None:\n",
            "tests/engine/test_dynamic.py::TestDynamicAccuracy::"
            "test_all_strategies_catch_mid_run_installs",
            "'AlarmNotification' object has no attribute 'expiry'"),
)


@pytest.mark.parametrize("row", RETIRED[:examples(1, len(RETIRED))],
                         ids=lambda row: row.rule_id)
def test_retired_seed_fails_its_catching_test(tmp_path, row):
    copy = tmp_path / "src" / "repro"
    shutil.copytree(package_root(), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / row.target
    source = path.read_text(encoding="utf-8")
    assert source.count(row.old) == 1, "seed anchor moved: %r" % row.old
    path.write_text(source.replace(row.old, row.new), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", row.test_id],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(copy.parent)))
    assert completed.returncode == 1, completed.stdout[-2000:]
    assert row.fragment in completed.stdout, completed.stdout[-2000:]
