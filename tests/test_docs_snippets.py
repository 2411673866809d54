"""The code in docs/EXTENDING.md must actually work."""

import functools

import pytest

from repro.alarms import AlarmScope
from repro.engine import run_simulation
from repro.engine.simulation import (compute_mutating_ground_truth,
                                     in_process_link, run_session)
from repro.geometry import Rect
from repro.protocol.handlers import ServerPolicy
from repro.protocol.messages import InstallSafeRegion
from repro.saferegion import RectangularSafeRegion, region_is_safe
from repro.strategies import (ProcessingStrategy,
                              RectangularSafeRegionStrategy)
from repro.telemetry import Telemetry, event_counts, reconcile
from .strategies.conftest import make_world
from .telemetry.test_reconcile import trace_data


@pytest.fixture(scope="module")
def world():
    return make_world(vehicles=5, duration=120.0)


class EveryOtherFix(ProcessingStrategy):
    """The custom-strategy snippet (deliberately unsound)."""

    name = "every-other"

    def advance(self, client, trace, start, stop):
        for index in range(start, stop):
            if int(trace.times[index]) % 2 == 0:
                self._send_report(client, trace, index)
                return index + 1
        return stop


class WholeCellPolicy(ServerPolicy):
    """The custom server-policy snippet."""

    def on_region_exit(self, server, request, time_s, triggered):
        with server.timed_saferegion(request.user_id, time_s):
            cell = server.current_cell(request.position)
            pending = server.pending_alarms_in(request.user_id, cell)
            rect = Rect.point_rect(request.position) if pending else cell
        return (InstallSafeRegion(rect=rect),)


class WholeCell(RectangularSafeRegionStrategy):
    def server_policy(self):
        return WholeCellPolicy()


class _Result:
    def __init__(self, rect):
        self.rect = rect

    def to_safe_region(self):
        return RectangularSafeRegion(self.rect)


class TinyBoxComputer:
    """The custom safe-region computer snippet."""

    SIDE = 60.0

    def compute(self, position, heading, cell, obstacles):
        box = Rect(position.x - self.SIDE, position.y - self.SIDE,
                   position.x + self.SIDE, position.y + self.SIDE)
        region = box.intersection(cell)
        for obstacle in obstacles:
            pieces = region.subtract(obstacle)
            region = max((p for p in pieces
                          if p.contains_point(position)),
                         key=lambda p: p.area, default=None)
            if region is None:
                region = Rect.point_rect(position)
        assert region_is_safe(region, obstacles)
        return _Result(region)


class TestCustomStrategySnippet:
    def test_runs_and_engine_scores_it(self, world):
        result = run_simulation(world, EveryOtherFix())
        # skipping fixes can only delay triggers, never invent them
        assert result.accuracy.spurious == 0
        # half the fixes reach the server
        assert result.metrics.uplink_messages == pytest.approx(
            world.traces.total_samples / 2, rel=0.05)


class TestCustomPolicySnippet:
    def test_a_policy_written_from_the_template_reconciles(self, world):
        """Every region it serves is counted in ``Metrics`` *and* seen in
        the event stream, so ``repro report`` passes on its trace."""
        telemetry = Telemetry.capture()
        result = run_simulation(world, WholeCell(name="whole-cell"),
                                telemetry=telemetry)
        assert result.accuracy.perfect
        served = result.metrics.safe_region_computations
        assert served == result.metrics.uplink_messages > 0
        events = list(telemetry.tracer.sink.records)
        assert event_counts(events)["saferegion_computed"] == served
        outcome = reconcile(trace_data(telemetry, result.metrics))
        assert outcome["ok"], [entry for entry in outcome["checks"]
                               if not entry["ok"]]


class TestCustomComputerSnippet:
    def test_sound_but_chatty(self, world):
        from repro.saferegion import MWPSRComputer
        from repro.strategies import RectangularSafeRegionStrategy

        tiny = run_simulation(world, RectangularSafeRegionStrategy(
            TinyBoxComputer(), name="tiny-box"))
        assert tiny.accuracy.perfect  # sound ...
        mwpsr = run_simulation(world, RectangularSafeRegionStrategy(
            MWPSRComputer()))
        assert tiny.metrics.uplink_messages > \
            1.5 * mwpsr.metrics.uplink_messages  # ... but chatty


class TestCustomWorldSnippet:
    def test_world_composition(self, tmp_path):
        from repro import GridOverlay, World
        from repro.alarms import load_alarms, save_alarms
        from repro.mobility import load_traces, save_traces
        from .strategies.conftest import make_world

        source = make_world(vehicles=3, duration=60.0, alarms=30)
        save_traces(source.traces, tmp_path / "t.csv")
        save_alarms(source.registry, tmp_path / "a.jsonl")

        world = World(universe=source.universe,
                      grid=GridOverlay(source.universe, 2.5),
                      registry=load_alarms(tmp_path / "a.jsonl"),
                      traces=load_traces(tmp_path / "t.csv"))
        assert world.ground_truth() == source.ground_truth()


class GrowingZone:
    """The custom world-mutation snippet."""

    def __init__(self, alarm_id, margin_m, registry, sample_interval):
        self.alarm_id = alarm_id
        self.margin_m = margin_m
        self.registry = registry
        self.every = max(1, round(60.0 / sample_interval))

    def apply(self, step):
        if step == 0 or step % self.every:
            return (), ()
        old = self.registry.get(self.alarm_id).region
        new = Rect(old.min_x - self.margin_m, old.min_y - self.margin_m,
                   old.max_x + self.margin_m, old.max_y + self.margin_m)
        alarm = self.registry.relocate(self.alarm_id, new)
        return [(alarm, (old, new))], ()


class TestCustomMutationSnippet:
    def test_growing_zone_keeps_the_accuracy_contract(self, world):
        from repro.saferegion import MWPSRComputer
        from repro.strategies import RectangularSafeRegionStrategy

        alarm_id = next(alarm.alarm_id
                        for alarm in world.registry.all_alarms()
                        if alarm.scope is AlarmScope.PUBLIC)
        before = world.registry.get(alarm_id).region
        growing = functools.partial(GrowingZone, alarm_id, 50.0)
        result = run_session(
            world, RectangularSafeRegionStrategy(MWPSRComputer()),
            in_process_link, mutation=growing,
            ground_truth=lambda: compute_mutating_ground_truth(world,
                                                               growing))
        assert result.accuracy.perfect
        assert result.metrics.downlink_messages > \
            result.metrics.safe_region_computations  # pushes happened
        assert world.registry.get(alarm_id).region == before
