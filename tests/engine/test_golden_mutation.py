"""Mutating-world golden suite: the replay-core refactor changed *where*
the time-major loop, the invalidation push and the mutating ground-truth
scan live, so it must not change a single counter or trigger of a
dynamic or tracking run.

``goldens/mutation_goldens.json`` was captured from the pre-refactor
drivers (the hand-written ``run_dynamic_simulation`` /
``run_tracking_simulation`` loops) on the default ``make_world()``:
every deterministic counter of ``Metrics.counters()`` plus the sorted
``fired_pairs()``, for all six strategies, under

* a fixed schedule mixing public and private installs with removals by
  ``install_index`` and by ``alarm_id``;
* one ``TargetTrack.following_trace`` over a pre-installed public alarm.

Accuracy and "pushes > 0" were the only properties the older suites
asserted for these drivers; a changed invalidation count passes those
and fails here.

The counters of ``dynamic/{rectangular,adaptive}`` and
``tracking/{rectangular,adaptive}`` were re-captured once, in PR 16:
not a protocol change but over-invalidation removed.  The capture above
had pinned a defect — the rectangular install recorded no footprint, so
every public install or target move push-invalidated the whole fleet
(tracking/rectangular: 1,638 uplinks beside safe-period's 1,675) — and
with the rectangle as the footprint only the clients a change touches
are woken (98).  The ``fired_pairs`` of those four rows, the other
eight rows and all of ``wire_goldens.json`` did not move.
"""

import json
from pathlib import Path

import pytest

from repro.alarms import AlarmScope
from repro.engine import (AlarmSchedule, InstallAction, RemoveAction,
                          TargetTrack, run_dynamic_simulation,
                          run_tracking_simulation)
from repro.geometry import Rect
from ..strategies.conftest import make_world
from .test_golden_protocol import STRATEGY_NAMES, _factory

GOLDEN_PATH = Path(__file__).parent / "goldens" / "mutation_goldens.json"


@pytest.fixture(scope="module")
def world():
    return make_world()


def _first_public(world):
    return next(alarm for alarm in world.registry.all_alarms()
                if alarm.scope is AlarmScope.PUBLIC)


def golden_schedule(world):
    """Public + private installs, removals by position and by id."""
    vehicles = world.traces.vehicle_ids()
    actions = []
    for index in range(10):
        owner = vehicles[index % len(vehicles)]
        trace = world.traces[owner]
        anchor = trace[min(len(trace) - 1, 50 + 9 * index)].position
        region = Rect.from_center(anchor, 160.0, 160.0).intersection(
            world.universe)
        scope = AlarmScope.PRIVATE if index % 3 == 0 else AlarmScope.PUBLIC
        actions.append(InstallAction(time=20.0 + 4.0 * index, region=region,
                                     scope=scope, owner_id=owner))
    actions.append(RemoveAction(time=70.0, install_index=1))
    actions.append(RemoveAction(time=90.0, install_index=3))
    actions.append(RemoveAction(time=60.0,
                                alarm_id=_first_public(world).alarm_id))
    return AlarmSchedule(actions)


def golden_track(world):
    """The first public alarm rides vehicle 0's trace."""
    first = world.traces.vehicle_ids()[0]
    return TargetTrack.following_trace(_first_public(world).alarm_id,
                                       world.traces[first],
                                       width=400.0, height=400.0)


def observed(result):
    """What the goldens pin: every counter and who fired what."""
    return {
        "counters": result.metrics.counters(),
        "fired_pairs": sorted(list(pair)
                              for pair in result.metrics.fired_pairs()),
    }


def capture(world):
    """All twelve golden rows, as the engine under test produces them."""
    schedule = golden_schedule(world)
    track = golden_track(world)
    rows = {"dynamic": {}, "tracking": {}}
    for name in STRATEGY_NAMES:
        factory = _factory(name, world.max_speed())
        rows["dynamic"][name] = observed(
            run_dynamic_simulation(world, factory(), schedule))
        rows["tracking"][name] = observed(
            run_tracking_simulation(world, factory(), [track]))
    return rows


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


class TestDynamicGoldens:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_counters_and_triggers_match(self, world, goldens, name):
        strategy = _factory(name, world.max_speed())()
        result = run_dynamic_simulation(world, strategy,
                                        golden_schedule(world))
        assert result.accuracy.perfect
        assert observed(result) == goldens["dynamic"][name]

    def test_schedule_exercises_pushes_and_removals(self, goldens):
        # the fixture is only worth pinning if invalidation happens
        row = goldens["dynamic"]["rectangular"]["counters"]
        assert row["downlink_messages"] > row["safe_region_computations"]


class TestTrackingGoldens:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_counters_and_triggers_match(self, world, goldens, name):
        strategy = _factory(name, world.max_speed())()
        result = run_tracking_simulation(world, strategy,
                                         [golden_track(world)])
        assert result.accuracy.perfect
        assert observed(result) == goldens["tracking"][name]
