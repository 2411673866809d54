"""The retired rules stay retired only while their runtime guards hold.

RL001 (frozen geometry), PA001 (protocol exhaustiveness), PA002
(telemetry drift), PA003 (fork safety across modules), PA005 (blocking
calls on the event loop), PA006 (cross-thread races), PA007 (task
lifecycle), PA008 (session conformance), PA009 (resources leaked on an
exit path) and PA010 (downlink causality) were deleted from the checker
because a guard that holds at every site already catches their
defects: frozen geometry types, ``verify_field_layouts`` inside every
codec built, the telemetry registry's refusal of an
undeclared instrument, the sharded engine's spawn differential run
(``tests/engine/test_parallel_equivalence.py``),
the blocking-call guard on every daemon loop (``tests/conftest.py``),
the daemon objects' refusal of writes from a thread other than their
owner's, the daemon's always-on task-leak check at ``aclose()``
(raised by leaving a ``DaemonThread`` block), the daemon's dispatch
through the session table (held to the spec by the socket conformance
suite), the ``ResourceWarning``-as-error filter of ``pyproject.toml``
plus the conformance suite's truncated-frame cases, and the wire
goldens plus the accuracy contract.  PA003's row restates its seed
against the one dispatch path left, where a worker takes its job as a
process argument; PA008's row restates its last seed against the
daemon's session-table dispatch; PA007's restates its seed, a spawn whose
handle is dropped, on a per-connection idle watch, since the drain
worker and the loop watchdog it was seeded on before are gone.  Each
row below is the defect the rule was last seeded with
(``test_session_mutation.py`` held one per rule) and the test that
catches it without the checker.  The
row is applied to a copy of ``src/repro`` and that one test is run
against the copy in a subprocess; it must fail, with the guard's own
words.  RL005 (the safe-region class contract) has no row: the
abstract class it guarded is gone, so there is nothing left to seed.

A row costs about two seconds, so tier-1 runs the first one only and
``REPRO_DEEP=1`` (CI's ``deep-checks`` job) runs them all — see
:mod:`tests.budget`.  ``docs/STATIC_ANALYSIS.md`` ("Retired rules")
names each guard.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

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
    #: Tells apart two seeds of one rule in the test id.
    shape: str = ""
    #: Further ``(old, new)`` edits to the same file, for a seed that
    #: needs more than one site.
    also: Tuple[Tuple[str, str], ...] = ()


RETIRED = (
    Retired("RL001", "geometry/rect.py",
            "        return Rect(self.min_x + dx, self.min_y + dy,\n"
            "                    self.max_x + dx, self.max_y + dy)\n",
            "        self.min_x += dx  # 'saves an allocation'\n"
            "        return self\n",
            "tests/geometry/test_rect.py::TestCombination::test_translated",
            "FrozenInstanceError"),
    Retired("PA001", "protocol/wire.py",
            '"position.y", "heading", "speed"),\n'
            '    "RegionExitReport"',
            '"position.y", "speed", "heading"),\n'
            '    "RegionExitReport"',
            "tests/engine/test_dynamic.py::TestDynamicAccuracy::"
            "test_all_strategies_catch_mid_run_installs",
            "LocationReport layout orders fields"),
    Retired("PA002", "telemetry/facade.py",
            'registry.counter("saferegion_exits").inc()',
            'registry.counter("region_exits").inc()',
            "tests/telemetry/test_facade.py::TestTraceLifecycle::"
            "test_manifest_and_summary_records",
            "undeclared telemetry instrument 'region_exits'"),
    # PA003's seed: the worker looks its job up in a module dict the
    # parent filled, which a forked child inherits and a spawned one
    # does not.  The spawn differential run starts fresh interpreters.
    Retired("PA003", "engine/parallel.py",
            "pipe.send((job.run(shard, index), None))",
            "pipe.send((_JOBS[index].run(shard, index), None))",
            "tests/engine/test_parallel_equivalence.py::"
            "test_spawn_workers_equal_serial",
            "KeyError: 0",
            also=(("def _run_shard(",
                   "#: The parent's jobs by shard ('a child inherits them "
                   "for free').\n"
                   "_JOBS: Dict[int, ShardJob] = {}\n\n\n"
                   "def _run_shard("),
                  ("            process.start()\n",
                   "            _JOBS[index] = job\n"
                   "            process.start()\n"))),
    Retired("PA005", "net/daemon.py",
            "        writer.close()\n        try:\n",
            "        time.sleep(0.01)  # 'let the peer read the last frame'\n"
            "        writer.close()\n        try:\n",
            "tests/net/test_daemon.py::TestRequestReply::"
            "test_unix_roundtrip_charges_the_server",
            "1 blocking call(s) on the daemon loop: time.sleep() at "),
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
            "        decoder = FrameDecoder()\n",
            "        decoder = FrameDecoder()\n"
            "\n"
            "        async def idle_watch() -> None:  # 'drop idle peers'\n"
            "            await asyncio.sleep(3600.0)\n"
            "            writer.close()\n"
            "\n"
            "        asyncio.create_task(idle_watch())\n",
            "tests/net/test_daemon.py::TestRequestReply::"
            "test_unix_roundtrip_charges_the_server",
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
    Retired("PA009", "net/daemon.py",
            "                    decoder.finish()  # raises if the peer died "
            "mid-frame\n",
            "",
            "tests/net/test_session_conformance.py::"
            "test_frame_gets_the_spec_answer[AWAIT_HELLO-HELLO-truncated]",
            "AWAIT_HELLO HELLO truncated: the spec answers ERROR, the "
            "daemon sent nothing"),
    # PA009's socket shape: the test passes without the ResourceWarning
    # filter of pyproject.toml, so this row proves the filter is live.
    Retired("PA009", "net/stats.py",
            "    with transport:\n",
            "    if transport:  # 'collecting it closes it'\n",
            "tests/net/test_stats.py::TestStatsChannel::"
            "test_snapshot_sections",
            "unclosed <socket.socket", shape="socket"),
    Retired("PA010", "strategies/safeperiod.py",
            "            if isinstance(message, InstallSafePeriod):\n",
            "            if message is not None:\n",
            "tests/engine/test_dynamic.py::TestDynamicAccuracy::"
            "test_all_strategies_catch_mid_run_installs",
            "'AlarmNotification' object has no attribute 'expiry'"),
)


@pytest.mark.parametrize("row", RETIRED[:examples(1, len(RETIRED))],
                         ids=lambda row: "-".join(
                             filter(None, (row.rule_id, row.shape))))
def test_retired_seed_fails_its_catching_test(tmp_path, row):
    copy = tmp_path / "src" / "repro"
    shutil.copytree(package_root(), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / row.target
    source = path.read_text(encoding="utf-8")
    for old, new in ((row.old, row.new),) + row.also:
        assert source.count(old) == 1, "seed anchor moved: %r" % old
        source = source.replace(old, new)
    path.write_text(source, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", row.test_id],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(copy.parent)))
    assert completed.returncode == 1, completed.stdout[-2000:]
    assert row.fragment in completed.stdout, completed.stdout[-2000:]
