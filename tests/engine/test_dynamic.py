"""Tests for dynamic alarm lifecycle: mid-run installs/removals with
push invalidation, and the accuracy contract under alarm lifetimes.

An install invalidates a client only when its region touches the
client's *footprint* — the area the client's installed state answers
for (MWPSR: the rectangle itself; bitmap/OPT: the base cell; a safe
period: everywhere).  ``TestInvalidateByFootprint`` places installs
against live footprints (see ``footprints.py``) and holds both halves:
no trigger is missed or late, and nobody else is woken.  Every run is
pinned and wire-verified (``tests/oracles.py``).
"""


import pytest

from repro.alarms import AlarmScope
from repro.engine import (AlarmSchedule, InstallAction, RemoveAction,
                          compute_dynamic_ground_truth, simulation)
from repro.geometry import Rect
from repro.saferegion import MWPSRComputer, PBSRComputer
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              PeriodicStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)
from ..oracles import run_dynamic_simulation
from ..strategies.conftest import make_world
from .footprints import (FOOTPRINT_STRATEGIES, PLACEMENTS, STRATEGY_NAMES,
                         exit_step, make_strategy, placements, record_pushes,
                         touching)


@pytest.fixture(scope="module")
def world():
    # start with few alarms so mid-run installs carry the weight
    return make_world(vehicles=8, duration=150.0, alarms=40,
                      public_fraction=0.3)


def crossing_installs(world, count=12, at_time=40.0):
    """Install public alarms squarely on positions vehicles will visit.

    Anchoring each alarm on a trace position *after* the install time
    guarantees triggers that only a correct dynamic implementation will
    deliver.
    """
    actions = []
    vehicles = world.traces.vehicle_ids()
    for index in range(count):
        trace = world.traces[vehicles[index % len(vehicles)]]
        anchor = trace[min(len(trace) - 1,
                           int(at_time) + 20 + 7 * index)].position
        region = Rect.from_center(anchor, 150.0, 150.0)
        clipped = region.intersection(world.universe)
        actions.append(InstallAction(time=at_time + index, region=clipped,
                                     scope=AlarmScope.PUBLIC, owner_id=0))
    return actions


def all_strategies(world):
    return [
        PeriodicStrategy(),
        SafePeriodStrategy(max_speed=world.max_speed()),
        RectangularSafeRegionStrategy(MWPSRComputer(), name="MWPSR"),
        BitmapSafeRegionStrategy(PBSRComputer(height=4), name="PBSR"),
        OptimalStrategy(),
    ]


class TestSchedule:
    def test_actions_sorted(self):
        schedule = AlarmSchedule([
            InstallAction(10.0, Rect(0, 0, 1, 1), AlarmScope.PUBLIC, 0),
            InstallAction(5.0, Rect(0, 0, 1, 1), AlarmScope.PUBLIC, 0),
        ])
        assert [action.time for action in schedule.actions] == [5.0, 10.0]

    def test_due_window(self):
        schedule = AlarmSchedule([
            InstallAction(5.0, Rect(0, 0, 1, 1), AlarmScope.PUBLIC, 0),
            InstallAction(10.0, Rect(0, 0, 1, 1), AlarmScope.PUBLIC, 0),
        ])
        assert len(schedule.due(0.0, 7.0)) == 1
        assert len(schedule.due(7.0, 20.0)) == 1
        assert schedule.due(20.0, 30.0) == []
        # the window is closed at its start and open at its end
        assert [a.time for a in schedule.due(5.0, 10.0)] == [5.0]
        assert [a.time for a in schedule.due(5.0, 10.5)] == [5.0, 10.0]
        assert schedule.due(6.0, 6.0) == schedule.due(9.0, 6.0) == []
        assert schedule.due(float("-inf"), 5.0) == []
        assert len(schedule.due(float("-inf"), float("inf"))) == 2

    def test_removal_validation(self):
        with pytest.raises(ValueError):
            RemoveAction(time=1.0)
        with pytest.raises(ValueError):
            RemoveAction(time=1.0, install_index=0, alarm_id=5)
        with pytest.raises(ValueError):
            AlarmSchedule([RemoveAction(time=1.0, install_index=0)])

    def test_unknown_action_rejected(self):
        with pytest.raises(TypeError):
            AlarmSchedule(["not an action"])


class TestOneChangeFeed:
    def test_a_run_records_its_feed_once_and_scores_against_it(
            self, world, monkeypatch):
        """The replay and the scoring share one recording, and what is
        scored against is the public oracle's trigger set."""
        recorded = []
        record = simulation.record_changes

        def counting(*args):
            feed = record(*args)
            recorded.append(feed)
            return feed

        monkeypatch.setattr(simulation, "record_changes", counting)
        schedule = AlarmSchedule(crossing_installs(world) + [
            RemoveAction(70.0, install_index=0),
            RemoveAction(80.0, alarm_id=1)])
        result = run_dynamic_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()), schedule)
        assert len(recorded) == 1
        monkeypatch.undo()
        expected = compute_dynamic_ground_truth(world, schedule)
        assert result.accuracy.perfect
        assert result.accuracy.expected == len(expected) > 0
        assert result.accuracy.delivered == len(expected)


class TestDynamicGroundTruth:
    def test_installed_alarm_triggers_only_after_install(self, world):
        vehicle = world.traces.vehicle_ids()[0]
        trace = world.traces[vehicle]
        # an alarm sitting on the vehicle's position at t=100, installed
        # at t=90: it must not trigger from the earlier pass (if any)
        region = Rect.from_center(trace[100].position, 120.0, 120.0)
        schedule = AlarmSchedule([InstallAction(90.0, region,
                                                AlarmScope.PUBLIC, 0)])
        expected = compute_dynamic_ground_truth(world, schedule)
        times = [when for (user, _), when in expected.items()
                 if user == vehicle]
        assert times and all(when >= 90.0 for when in times)

    def test_removed_alarm_cannot_trigger_after_removal(self, world):
        vehicle = world.traces.vehicle_ids()[0]
        trace = world.traces[vehicle]
        region = Rect.from_center(trace[100].position, 120.0, 120.0)
        schedule = AlarmSchedule([
            InstallAction(10.0, region, AlarmScope.PUBLIC, 0),
            RemoveAction(95.0, install_index=0),
        ])
        expected = compute_dynamic_ground_truth(world, schedule)
        # the scheduled alarm gets the next id after the preinstalled ones
        scheduled_id = len(world.registry)
        times = [when for (_, alarm_id), when in expected.items()
                 if alarm_id == scheduled_id]
        # unless a vehicle crossed the region in [10, 95), no trigger of
        # the scheduled alarm exists; any that do exist predate removal
        assert all(when < 95.0 for when in times)


class TestDynamicAccuracy:
    def test_all_strategies_catch_mid_run_installs(self, world):
        schedule = AlarmSchedule(crossing_installs(world))
        expected = compute_dynamic_ground_truth(world, schedule)
        new_ids = {key for key in expected
                   if key[1] >= len(world.registry)}
        assert new_ids, "installs must create catchable triggers"
        for strategy in all_strategies(world):
            result = run_dynamic_simulation(world, strategy, schedule)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))

    def test_removal_prevents_spurious_opt_triggers(self, world):
        vehicle = world.traces.vehicle_ids()[1]
        trace = world.traces[vehicle]
        region = Rect.from_center(trace[120].position, 150.0, 150.0)
        schedule = AlarmSchedule([
            InstallAction(20.0, region, AlarmScope.PUBLIC, 0),
            RemoveAction(110.0, install_index=0),
        ])
        result = run_dynamic_simulation(world, OptimalStrategy(), schedule)
        assert result.accuracy.spurious == 0
        assert result.accuracy.perfect

    def test_invalidation_pushes_counted(self, world):
        schedule = AlarmSchedule(crossing_installs(world, count=6))
        strategy = SafePeriodStrategy(max_speed=world.max_speed())
        result = run_dynamic_simulation(world, strategy, schedule)
        # safe-period clients are invalidated on every relevant install
        assert result.metrics.downlink_messages > 0
        assert result.accuracy.perfect

    def test_world_registry_untouched(self, world):
        before = len(world.registry)
        schedule = AlarmSchedule(crossing_installs(world, count=4))
        run_dynamic_simulation(world, PeriodicStrategy(), schedule)
        assert len(world.registry) == before

    def test_empty_schedule_matches_static_ground_truth(self, world):
        schedule = AlarmSchedule([])
        expected = compute_dynamic_ground_truth(world, schedule)
        assert expected == world.ground_truth()


def public_install(step, region):
    return AlarmSchedule([InstallAction(float(step), region,
                                        AlarmScope.PUBLIC, owner_id=0)])


class TestInvalidateByFootprint:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_install_against_a_live_rectangle_is_safe(self, world, anchor,
                                                      placement, name):
        user, step, rectangle, side = anchor
        region = placements(rectangle, side, world.universe)[placement]
        schedule = public_install(step, region)
        expected = compute_dynamic_ground_truth(world, schedule)
        if placement == "covering it":
            # the holder is strictly inside: due at the install's own step
            assert expected[(user, len(world.registry))] == float(step)
        result = run_dynamic_simulation(world, make_strategy(name, world),
                                        schedule)
        assert result.accuracy.perfect, (
            "%s, install %s: %r" % (name, placement, result.accuracy))
        assert result.accuracy.expected == len(expected)

    @pytest.mark.parametrize("name", FOOTPRINT_STRATEGIES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_pushes_exactly_the_clients_it_touches(self, world, logs, anchor,
                                                   monkeypatch, placement,
                                                   name):
        _user, step, rectangle, side = anchor
        region = placements(rectangle, side, world.universe)[placement]
        pushes = record_pushes(monkeypatch)
        run_dynamic_simulation(world, make_strategy(name, world),
                               public_install(step, region))
        assert sorted(pushes) == sorted(
            (user, float(step))
            for user in touching(logs[name], step, [region]))

    def test_the_rectangle_is_a_tighter_footprint_than_the_cell(
            self, world, anchor, monkeypatch):
        user, step, rectangle, side = anchor
        regions = placements(rectangle, side, world.universe)

        def pushed(name, placement):
            pushes = record_pushes(monkeypatch)
            run_dynamic_simulation(world, make_strategy(name, world),
                                   public_install(step, regions[placement]))
            monkeypatch.undo()
            return [who for who, _when in pushes]

        beside = "in the cell, clear of the rectangle"
        assert user not in pushed("rectangular", beside)
        assert user not in pushed("adaptive", beside)
        assert user in pushed("bitmap", beside)       # same cell
        assert user in pushed("optimal", beside)
        # closed intersection: an abutting region wakes the holder (it
        # cannot fire inside, but one ulp more and it could)
        assert user in pushed("rectangular", "sharing an edge")
        assert user in pushed("rectangular", "sharing a corner")
        assert user in pushed("rectangular", "overlapping by one ulp")
        assert user not in pushed("rectangular", "one ulp clear")
        assert user in pushed("rectangular", "covering it")
        assert user in pushed("rectangular", "zero-area, across it")

    @pytest.mark.parametrize("name", FOOTPRINT_STRATEGIES)
    def test_install_disjoint_from_every_footprint_pushes_nothing(
            self, world, logs, monkeypatch, name):
        step = 40
        spot = next(
            region for region in world.universe.grid_split(40, 40)
            if not touching(logs[name], step, [region]))
        pushes = record_pushes(monkeypatch)
        result = run_dynamic_simulation(world, make_strategy(name, world),
                                        public_install(step, spot))
        assert pushes == []
        assert result.accuracy.perfect

    def test_a_timer_has_no_footprint_and_periodic_holds_nothing(
            self, world, monkeypatch):
        spot = next(iter(world.universe.grid_split(40, 40)))
        for name, woken in (("safeperiod", len(world.traces)),
                            ("periodic", 0)):
            pushes = record_pushes(monkeypatch)
            run_dynamic_simulation(world, make_strategy(name, world),
                                   public_install(40, spot))
            monkeypatch.undo()
            assert len(pushes) == woken, name

    def test_private_install_wakes_only_its_owner(self, world, anchor,
                                                  monkeypatch):
        user, step, rectangle, _side = anchor
        other = next(uid for uid in world.user_ids if uid != user)
        for owner, woken in ((user, [(user, float(step))]), (other, [])):
            pushes = record_pushes(monkeypatch)
            run_dynamic_simulation(
                world, make_strategy("rectangular", world),
                AlarmSchedule([InstallAction(float(step),
                                             rectangle.expanded(-1.0),
                                             AlarmScope.PRIVATE, owner)]))
            monkeypatch.undo()
            assert [push for push in pushes if push[0] == user] == woken

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("lead", [0, 1, 5])
    def test_install_where_the_client_lands_as_it_exits(self, world, logs,
                                                        monkeypatch, lead,
                                                        name):
        """An alarm just outside the held rectangle, on the fix that
        leaves it — installed on that very step, or earlier without
        waking the holder — fires on that fix."""
        user, step, gap = exit_step(logs["rectangular"], world)
        landing = Rect.from_center(world.traces[user][step].position,
                                   gap, gap)
        schedule = public_install(step - lead, landing)
        expected = compute_dynamic_ground_truth(world, schedule)
        assert expected[(user, len(world.registry))] == float(step)
        pushes = record_pushes(monkeypatch)
        result = run_dynamic_simulation(world, make_strategy(name, world),
                                        schedule)
        assert result.accuracy.perfect, (name, result.accuracy)
        if name in ("rectangular", "adaptive"):
            assert user not in [who for who, _when in pushes]

    def test_a_region_without_a_footprint_is_refused_not_flooded(
            self, world):
        """A strategy that installs a region must say what area it
        covers: the engine will not quietly wake the whole fleet for it.
        (An MWPSR client cannot hold a rectangle without a footprint:
        the rectangle is its footprint.)"""
        class Forgetful(BitmapSafeRegionStrategy):
            def _install(self, client, time_s, reply):
                super()._install(client, time_s, reply)
                client.footprint = None

        with pytest.raises(AssertionError):
            run_dynamic_simulation(world, Forgetful(),
                                   AlarmSchedule(crossing_installs(world)))

    def test_public_installs_do_not_flood_the_fleet(self, world):
        """What a safe region is for: a public install wakes every
        safe-period client, but only the rectangles it touches."""
        schedule = AlarmSchedule(crossing_installs(world))
        uplinks = {
            name: run_dynamic_simulation(world, make_strategy(name, world),
                                         schedule).metrics.uplink_messages
            for name in ("safeperiod", "rectangular", "adaptive")}
        assert 4 * uplinks["rectangular"] <= uplinks["safeperiod"], uplinks
        assert 4 * uplinks["adaptive"] <= uplinks["safeperiod"], uplinks
