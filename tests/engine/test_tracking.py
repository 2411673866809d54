"""Tests for moving-target tracking under every strategy.

A target move invalidates a client only when the region it left or the
region it reached touches the client's footprint (see
``test_dynamic.py``); ``TestMovesAgainstFootprints`` relocates a target
against live footprints and holds safety and economy both.  Every run
is pinned and wire-verified (``tests/oracles.py``).
"""

import pytest

from repro.engine import TargetTrack, compute_tracking_ground_truth
from repro.geometry import Rect
from repro.saferegion import MWPSRComputer, PBSRComputer
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              PeriodicStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)
from ..oracles import run_tracking_simulation
from ..strategies.conftest import make_world
from .footprints import (FOOTPRINT_STRATEGIES, PLACEMENTS, STRATEGY_NAMES,
                         exit_step, make_strategy, placements, record_pushes,
                         touching)


@pytest.fixture(scope="module")
def world():
    # the bus is vehicle 0; cars 1..9 subscribe to its public alarm
    return make_world(vehicles=10, duration=180.0, alarms=30,
                      public_fraction=0.3)


@pytest.fixture(scope="module")
def bus_alarm_id(world):
    from repro.alarms import AlarmScope
    for alarm in world.registry.all_alarms():
        if alarm.scope is AlarmScope.PUBLIC:
            return alarm.alarm_id
    raise AssertionError("workload must contain a public alarm")


@pytest.fixture(scope="module")
def bus_track(world, bus_alarm_id):
    # track a pre-installed *public* alarm along vehicle 0's trace
    return TargetTrack.following_trace(bus_alarm_id, world.traces[0],
                                       width=400.0, height=400.0)


def all_strategies(world):
    return [
        PeriodicStrategy(),
        SafePeriodStrategy(max_speed=world.max_speed()),
        RectangularSafeRegionStrategy(MWPSRComputer(), name="MWPSR"),
        BitmapSafeRegionStrategy(PBSRComputer(height=3), name="PBSR"),
        OptimalStrategy(),
    ]


class TestTargetTrack:
    def test_validation(self):
        with pytest.raises(ValueError):
            TargetTrack(alarm_id=0, regions=())

    def test_region_at_clamps(self):
        track = TargetTrack(0, (Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)))
        assert track.region_at(0) == Rect(0, 0, 1, 1)
        assert track.region_at(99) == Rect(1, 1, 2, 2)
        with pytest.raises(ValueError):
            track.region_at(-1)

    def test_following_trace(self, world):
        track = TargetTrack.following_trace(0, world.traces[0], 100, 100)
        assert len(track.regions) == len(world.traces[0])
        first = world.traces[0][0].position
        assert track.region_at(0).contains_point(first)


class TestTrackingGroundTruth:
    def test_moving_alarm_can_catch_parked_users(self, world, bus_track):
        expected = compute_tracking_ground_truth(world, [bus_track])
        # the moving 400 m bus zone sweeps a 16 km^2 map for 3 minutes:
        # someone gets caught
        bus_hits = [key for key in expected if key[1] == bus_track.alarm_id]
        assert bus_hits

    def test_static_tracks_match_static_ground_truth(self, world,
                                                     bus_alarm_id):
        alarm = world.registry.get(bus_alarm_id)
        static = TargetTrack(bus_alarm_id, (alarm.region,))
        expected = compute_tracking_ground_truth(world, [static])
        assert expected == world.ground_truth()


class TestTrackingAccuracy:
    def test_every_strategy_upholds_the_contract(self, world, bus_track):
        expected = compute_tracking_ground_truth(world, [bus_track])
        assert expected
        for strategy in all_strategies(world):
            result = run_tracking_simulation(world, strategy, [bus_track])
            assert result.accuracy.perfect, (
                "%s under tracking: %r" % (strategy.name, result.accuracy))
            assert result.accuracy.expected == len(expected)

    def test_safe_region_confines_the_churn(self, world, bus_track,
                                            monkeypatch):
        """SP's global bound makes every target move invalidate every
        subscriber; a safe region wakes only the clients whose own
        rectangle the target leaves or reaches."""
        uplinks = {
            name: run_tracking_simulation(world, make_strategy(name, world),
                                          [bus_track]).metrics.uplink_messages
            for name in ("safeperiod", "rectangular", "adaptive")}
        assert 4 * uplinks["rectangular"] <= uplinks["safeperiod"], uplinks
        assert 4 * uplinks["adaptive"] <= uplinks["safeperiod"], uplinks
        # invalidation pushes are measured, not free
        pushes = record_pushes(monkeypatch)
        run_tracking_simulation(world, make_strategy("rectangular", world),
                                [bus_track])
        assert 0 < len(pushes) < uplinks["safeperiod"] // 4

    def test_world_registry_untouched(self, world, bus_track):
        region_before = world.registry.get(bus_track.alarm_id).region
        run_tracking_simulation(world, PeriodicStrategy(), [bus_track])
        assert world.registry.get(bus_track.alarm_id).region == \
            region_before


@pytest.fixture(scope="module")
def quiet_alarm(world):
    """A public alarm nobody fires while it stays put: the target."""
    from repro.alarms import AlarmScope
    fired = {alarm_id for _user, alarm_id in world.ground_truth()}
    return next(alarm for alarm in world.registry.all_alarms()
                if alarm.scope is AlarmScope.PUBLIC
                and alarm.alarm_id not in fired)


def jump(alarm, step, region):
    """The target stays put until ``step``, then parks on ``region``."""
    return TargetTrack(alarm.alarm_id, (alarm.region,) * step + (region,))


class TestMovesAgainstFootprints:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_move_against_a_live_rectangle_is_safe(self, world, anchor,
                                                   quiet_alarm, placement,
                                                   name):
        user, step, rectangle, side = anchor
        region = placements(rectangle, side, world.universe)[placement]
        track = jump(quiet_alarm, step, region)
        expected = compute_tracking_ground_truth(world, [track])
        if placement == "covering it":
            assert expected[(user, quiet_alarm.alarm_id)] == float(step)
        result = run_tracking_simulation(world, make_strategy(name, world),
                                         [track])
        assert result.accuracy.perfect, (
            "%s, target moved %s: %r" % (name, placement, result.accuracy))
        assert result.accuracy.expected == len(expected)

    @pytest.mark.parametrize("name", FOOTPRINT_STRATEGIES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_pushes_exactly_the_clients_it_leaves_or_reaches(
            self, world, logs, anchor, quiet_alarm, monkeypatch, placement,
            name):
        _user, step, rectangle, side = anchor
        region = placements(rectangle, side, world.universe)[placement]
        pushes = record_pushes(monkeypatch)
        run_tracking_simulation(world, make_strategy(name, world),
                                [jump(quiet_alarm, step, region)])
        assert sorted(pushes) == sorted(
            (user, float(step)) for user in touching(
                logs[name], step, [quiet_alarm.region, region]))

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_target_lands_where_the_client_exits(self, world, logs,
                                                 quiet_alarm, name):
        user, step, gap = exit_step(logs["rectangular"], world)
        landing = Rect.from_center(world.traces[user][step].position,
                                   gap, gap)
        track = jump(quiet_alarm, step, landing)
        expected = compute_tracking_ground_truth(world, [track])
        assert expected[(user, quiet_alarm.alarm_id)] == float(step)
        result = run_tracking_simulation(world, make_strategy(name, world),
                                         [track])
        assert result.accuracy.perfect, (name, result.accuracy)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_target_hops_through_every_placement(self, world, anchor,
                                                 quiet_alarm, name):
        _user, step, rectangle, side = anchor
        hops = tuple(placements(rectangle, side, world.universe).values())
        track = TargetTrack(quiet_alarm.alarm_id,
                            (quiet_alarm.region,) * step + hops * 3
                            + (quiet_alarm.region,))
        result = run_tracking_simulation(world, make_strategy(name, world),
                                         [track])
        assert result.accuracy.perfect, (name, result.accuracy)
