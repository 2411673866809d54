"""Per-strategy protocol behaviour on hand-built scenarios.

These tests drive a single client along a scripted straight-line trace
against a hand-placed alarm so every message and state transition is
predictable.
"""

import functools
import math

import pytest

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import AlarmServer, Metrics, World, run_simulation
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.mobility import Trace, TraceSample, TraceSet
from repro.protocol.transport import (InProcessTransport, LossyTransport,
                                      connect)
from repro.saferegion import MWPSRComputer, PBSRComputer
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              PeriodicStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)
from repro.strategies.base import ClientState

UNIVERSE = Rect(0, 0, 4000, 4000)


def straight_trace(start: Point, heading: float, speed: float,
                   steps: int, vehicle_id: int = 0) -> Trace:
    samples = []
    dx = speed * math.cos(heading)
    dy = speed * math.sin(heading)
    for k in range(steps + 1):
        samples.append(TraceSample(float(k),
                                   Point(start.x + k * dx,
                                         start.y + k * dy),
                                   heading, speed))
    return Trace(vehicle_id, samples)


def world_with(trace: Trace, alarms, cell_area_km2=16.0) -> World:
    registry = AlarmRegistry()
    for region, scope, owner in alarms:
        registry.install(region, scope, owner)
    grid = GridOverlay(UNIVERSE, cell_area_km2)
    traces = TraceSet({trace.vehicle_id: trace}, sample_interval=1.0)
    return World(universe=UNIVERSE, grid=grid, registry=registry,
                 traces=traces)


class _Recording(InProcessTransport):
    """The in-process transport, keeping every request it carries."""

    __slots__ = ("sent",)

    def __init__(self, server, policy):
        super().__init__(server, policy)
        self.sent = []

    def request(self, request, time_s):
        self.sent.append((request, time_s))
        return super().request(request, time_s)


class TestPeriodic:
    def test_one_uplink_per_sample_no_downlink(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 50)
        world = world_with(trace, [(Rect(300, 1900, 400, 2100),
                                    AlarmScope.PUBLIC, 9)])
        result = run_simulation(world, PeriodicStrategy())
        assert result.metrics.uplink_messages == 51
        assert result.metrics.downlink_messages == 0
        assert result.accuracy.perfect
        # x(t) = 100 + 10t is strictly inside (300, 400) first at t=21
        assert len(result.metrics.triggers) == 1
        assert result.metrics.triggers[0].time == 21.0

    @staticmethod
    def _attached(transport_factory):
        """A periodic client half on the straight-line world's server."""
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 50)
        world = world_with(trace, [(Rect(300, 1900, 400, 2100),
                                    AlarmScope.PUBLIC, 9)])
        server = AlarmServer(world.registry, world.grid, Metrics(),
                             sizes=world.sizes)
        strategy = PeriodicStrategy()
        session = connect(server, strategy, transport_factory)
        return strategy, session, server, trace

    def test_one_call_reports_its_whole_window(self):
        strategy, session, server, trace = self._attached(_Recording)
        client = ClientState(trace.vehicle_id)
        client.sequence = 7
        assert strategy.advance(client, trace, 5, 30) == 30
        sent = session.transport.sent
        assert [request.sequence for request, _ in sent] \
            == list(range(7, 32))
        assert [time_s for _, time_s in sent] == list(trace.times[5:30])
        assert [request.position for request, _ in sent] \
            == [Point(trace.xs[index], trace.ys[index])
                for index in range(5, 30)]
        assert client.sequence == 32
        assert server.metrics.uplink_messages == 25
        assert [event.time for event in server.metrics.triggers] == [21.0]
        assert strategy.advance(client, trace, 30, 30) == 30
        assert len(sent) == 25 and client.sequence == 32

    def test_a_window_over_a_lossy_link_charges_every_attempt(self):
        strategy, session, server, trace = self._attached(functools.partial(
            LossyTransport, uplink_drop=0.3, downlink_drop=0.3, seed=4,
            max_attempts=64))
        client = ClientState(trace.vehicle_id)
        assert strategy.advance(client, trace, 0, len(trace)) == len(trace)
        metrics = server.metrics
        assert metrics.uplink_drops > 0
        assert metrics.uplink_messages == len(trace) + metrics.uplink_drops
        assert client.sequence == len(trace)
        assert [event.time for event in metrics.triggers] == [21.0]


class TestSafePeriod:
    def test_client_sleeps_through_safe_period(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 60)
        alarm = (Rect(1000, 1900, 1100, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        strategy = SafePeriodStrategy(max_speed=world.max_speed())
        result = run_simulation(world, strategy)
        # initial distance 900 at v=10 -> safe period 90 > trace length:
        # only the very first sample reports
        assert result.metrics.uplink_messages == 1
        assert result.metrics.downlink_messages == 1

    def test_reports_cluster_near_alarm(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 95)
        alarm = (Rect(1000, 1900, 1100, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        result = run_simulation(world,
                                SafePeriodStrategy(world.max_speed()))
        assert result.accuracy.perfect
        assert result.metrics.uplink_messages >= 2

    def test_infinite_safe_period_without_alarms(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 50)
        world = world_with(trace, [])
        result = run_simulation(world,
                                SafePeriodStrategy(max_speed=10.0))
        assert result.metrics.uplink_messages == 1

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            SafePeriodStrategy(max_speed=0.0)


class TestRectangular:
    def test_silent_while_inside_region(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 50)
        world = world_with(trace, [])  # no alarms: safe region = cell
        result = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        assert result.metrics.uplink_messages == 1  # only the first fix
        assert result.metrics.downlink_messages == 1
        assert result.metrics.containment_checks == 50

    def test_recomputes_on_cell_crossing(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 250)
        world = world_with(trace, [], cell_area_km2=1.0)  # 1km cells
        result = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        # crosses x=1000 and x=2000 -> 1 initial + 2 crossings
        assert result.metrics.uplink_messages == 3
        assert result.metrics.safe_region_computations == 3

    def test_trigger_fires_at_entry_sample(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 80)
        alarm = (Rect(500, 1900, 640, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        result = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        assert result.accuracy.perfect
        (event,) = result.metrics.triggers
        # first sample strictly inside x in (500, 640): x=510 at t=41
        assert event.time == 41.0


class TestBitmapStrategy:
    def test_reports_every_fix_in_unsafe_area(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 80)
        alarm = (Rect(500, 1900, 640, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        strategy = BitmapSafeRegionStrategy(PBSRComputer(height=3))
        result = run_simulation(world, strategy)
        assert result.accuracy.perfect
        # while the client crosses the alarm's unsafe cells it reports
        assert result.metrics.uplink_messages > 1

    def test_bitmap_reshipped_only_after_firing(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 80)
        alarm = (Rect(500, 1900, 640, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        strategy = BitmapSafeRegionStrategy(PBSRComputer(height=3))
        result = run_simulation(world, strategy)
        # downlinks: initial bitmap + one refresh after the alarm fires
        assert result.metrics.downlink_messages == 2

    def test_gbsr_chattier_than_deep_pbsr(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 300)
        alarms = [(Rect(500 + 700 * k, 1900, 640 + 700 * k, 2100),
                   AlarmScope.PUBLIC, 9) for k in range(4)]
        world = world_with(trace, alarms)
        shallow = run_simulation(
            world, BitmapSafeRegionStrategy(PBSRComputer(height=1)))
        deep = run_simulation(
            world, BitmapSafeRegionStrategy(PBSRComputer(height=5)))
        assert shallow.metrics.uplink_messages > deep.metrics.uplink_messages
        assert shallow.accuracy.perfect and deep.accuracy.perfect


class TestOptimal:
    def test_uplinks_only_on_cell_change_and_trigger(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 80)
        alarm = (Rect(500, 1900, 640, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        result = run_simulation(world, OptimalStrategy())
        assert result.accuracy.perfect
        # initial fix + the trigger report (no cell crossing in 800m)
        assert result.metrics.uplink_messages == 2

    def test_checks_charge_per_alarm(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 30)
        alarms = [(Rect(3000, 100 * k + 100, 3050, 100 * k + 150),
                   AlarmScope.PUBLIC, 9) for k in range(5)]
        world = world_with(trace, alarms)
        result = run_simulation(world, OptimalStrategy())
        # 30 local evaluations x (1 cell check + 5 alarms)
        assert result.metrics.containment_ops == 30 * 6

    def test_fired_alarm_removed_from_local_set(self):
        trace = straight_trace(Point(100, 2000), 0.0, 10.0, 120)
        alarm = (Rect(500, 1900, 640, 2100), AlarmScope.PUBLIC, 9)
        world = world_with(trace, [alarm])
        result = run_simulation(world, OptimalStrategy())
        # exactly one trigger despite staying inside for many samples
        assert len(result.metrics.triggers) == 1
