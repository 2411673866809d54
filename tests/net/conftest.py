"""Shared fixtures for the network serving tests.

``make_daemon`` builds a minimal daemon — empty alarm registry, the
periodic policy — which is all the framing/lifecycle/fault tests need;
the conformance suite uses the full ``make_world`` path instead.

``loop_stall_watch`` is opt-in: every daemon a test starts under it
carries a sampler task on its event loop, and the daemon's close fails
if any sleep of the sampler woke more than
:data:`LOOP_STALL_THRESHOLD_S` late.  It sees what the autouse
blocking-call guard of ``tests/conftest.py`` cannot: a long lock hold
(``Lock.acquire`` is a C method and cannot be wrapped) or a loop held
by pure computation.
"""

import asyncio
import time

import pytest

from repro.alarms import AlarmRegistry
from repro.engine.metrics import Metrics
from repro.engine.server import AlarmServer
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.net import AlarmDaemon
from repro.protocol.messages import LocationReport
from repro.strategies import PeriodicStrategy

UNIVERSE = Rect(0.0, 0.0, 4000.0, 4000.0)

#: A sampler sleep waking this much late (seconds) means some callback
#: or coroutine step blocked the event loop.  Generous on purpose: CI
#: boxes jitter, but a blocking socket read or ``time.sleep`` blows well
#: past half a second.
LOOP_STALL_THRESHOLD_S = 0.5

#: How often the sampler wakes.
LOOP_SAMPLE_INTERVAL_S = 0.05


def make_daemon(telemetry=None, **kwargs):
    """A daemon serving the periodic policy over an empty registry."""
    registry = AlarmRegistry()
    grid = GridOverlay(UNIVERSE, 1.0)
    server = AlarmServer(registry, grid, Metrics(), telemetry=telemetry)
    return AlarmDaemon(server, PeriodicStrategy().server_policy(),
                       **kwargs)


def make_report(sequence=0, user_id=1):
    return LocationReport(user_id=user_id, sequence=sequence,
                          position=Point(1000.0, 1000.0),
                          heading=0.0, speed=5.0)


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "alarm.sock")


async def _sample_loop(worst):
    """Record in ``worst[0]`` the latest any periodic sleep woke."""
    interval = LOOP_SAMPLE_INTERVAL_S
    while True:
        before = time.perf_counter()
        await asyncio.sleep(interval)
        worst[0] = max(worst[0], time.perf_counter() - before - interval)


def _check_loop_health(worst_lag):
    if worst_lag > LOOP_STALL_THRESHOLD_S:
        raise AssertionError(
            "event loop stalled for %.3fs (threshold %.3fs): a callback or "
            "coroutine blocked the loop instead of awaiting or deferring "
            "to an executor" % (worst_lag, LOOP_STALL_THRESHOLD_S))


@pytest.fixture
def loop_stall_watch(monkeypatch):
    """Sample the loop of every daemon started; fail its close on a stall.

    The sampler starts once the daemon listens and is cancelled after
    its ``aclose()``; it lives outside the daemon module, so the
    daemon's own task-leak check does not count it.
    """
    samplers = {}

    def watched(start):
        async def start_watched(daemon, *args, **kwargs):
            bound = await start(daemon, *args, **kwargs)
            worst = [0.0]
            samplers[daemon] = (asyncio.create_task(_sample_loop(worst)),
                                worst)
            return bound
        return start_watched

    aclose = AlarmDaemon.aclose

    async def aclose_watched(daemon):
        sampler = samplers.pop(daemon, None)
        try:
            await aclose(daemon)
        finally:
            if sampler is not None:
                sampler[0].cancel()
                await asyncio.gather(sampler[0], return_exceptions=True)
        if sampler is not None:
            _check_loop_health(sampler[1][0])

    monkeypatch.setattr(AlarmDaemon, "start_unix",
                        watched(AlarmDaemon.start_unix))
    monkeypatch.setattr(AlarmDaemon, "start_tcp",
                        watched(AlarmDaemon.start_tcp))
    monkeypatch.setattr(AlarmDaemon, "aclose", aclose_watched)
