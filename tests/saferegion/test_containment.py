"""Wire-true client monitoring: the byte-level protocol drives the same
decisions as the in-memory simulation fast path."""

import math

import pytest

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.mobility import SteadyMotionModel
from repro.protocol.wire import (encode_bitmap_region, encode_rect_region,
                                 encode_safe_period)
from repro.saferegion import ClientMonitor, MWPSRComputer, PyramidBitmap

CELL = Rect(0, 0, 1000, 1000)
ALARMS = [Rect(400, 400, 520, 520), Rect(700, 100, 800, 260)]


class TestClientMonitor:
    def test_uninitialized_always_reports(self):
        monitor = ClientMonitor()
        assert monitor.should_report(0.0, Point(1, 1))
        assert not monitor.has_region

    def test_rect_region_roundtrip_decisions(self):
        monitor = ClientMonitor()
        result = MWPSRComputer().compute(Point(200, 200), 0.0, CELL, ALARMS)
        monitor.receive(encode_rect_region(result.rect), cell_rect=CELL)
        assert monitor.has_region
        assert monitor.region_area() == pytest.approx(result.rect.area)
        inside = result.rect.center
        assert not monitor.should_report(1.0, inside)
        assert monitor.should_report(2.0, Point(450, 450))  # inside alarm

    def test_bitmap_region_roundtrip_decisions(self):
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=3)
        bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        monitor = ClientMonitor(fan=3, height=3)
        monitor.receive(encode_bitmap_region(0, bitmap), cell_rect=CELL)
        # decisions must equal direct probes of the original bitmap
        for x in range(50, 1000, 90):
            for y in range(50, 1000, 90):
                p = Point(float(x), float(y))
                expected_inside, _ = bitmap.probe(p)
                assert monitor.should_report(0.0, p) == (not expected_inside)

    def test_cell_exit_reports(self):
        monitor = ClientMonitor()
        monitor.receive(encode_rect_region(Rect(0, 0, 1000, 1000)),
                        cell_rect=CELL)
        assert monitor.should_report(0.0, Point(1500, 500))

    def test_safe_period(self):
        monitor = ClientMonitor()
        monitor.receive(encode_safe_period(50.0))
        assert not monitor.should_report(10.0, Point(0, 0))
        assert monitor.should_report(50.0, Point(0, 0))

    def test_bitmap_requires_cell_rect(self):
        pyramid = Pyramid(CELL, height=1)
        bitmap = PyramidBitmap.from_obstacles(pyramid, [])
        monitor = ClientMonitor(height=1)
        with pytest.raises(ValueError):
            monitor.receive(encode_bitmap_region(0, bitmap))

    def test_probe_count_accumulates(self):
        monitor = ClientMonitor()
        monitor.receive(encode_rect_region(Rect(0, 0, 10, 10)),
                        cell_rect=CELL)
        monitor.should_report(0.0, Point(5, 5))
        monitor.should_report(1.0, Point(6, 6))
        assert monitor.probes == 2


class TestWireTrueEquivalence:
    """Replay one client through bytes and through the in-memory strategy;
    the report decisions must coincide at every fix."""

    def _drive(self, use_bitmap):
        from repro.alarms import AlarmRegistry, AlarmScope
        from repro.engine import AlarmServer, Metrics, MessageSizes
        from repro.index import GridOverlay, Pyramid as Pyr
        from repro.saferegion import PBSRComputer
        from repro.strategies import (BitmapSafeRegionStrategy,
                                      RectangularSafeRegionStrategy)
        from repro.strategies.base import ClientState
        from repro.mobility import Trace, TraceSample

        registry = AlarmRegistry()
        for region in ALARMS:
            registry.install(region, AlarmScope.PUBLIC, 9)
        grid = GridOverlay(CELL, cell_area_km2=1.0)

        # path: diagonal crossing both alarms
        samples = [TraceSample(float(k), Point(20.0 + 9.0 * k, 20.0 + 9.0 * k),
                               math.pi / 4, 12.7) for k in range(100)]

        # in-memory strategy run, recording report fixes
        from repro.protocol.transport import connect

        metrics = Metrics()
        server = AlarmServer(registry, grid, metrics, MessageSizes())
        if use_bitmap:
            strategy = BitmapSafeRegionStrategy(PBSRComputer(height=3))
        else:
            strategy = RectangularSafeRegionStrategy(
                MWPSRComputer(SteadyMotionModel(1, 8)))
        connect(server, strategy)
        client = ClientState(0)
        memory_reports = []
        trace = Trace(0, samples)
        for index, sample in enumerate(samples):
            before = metrics.uplink_messages
            strategy.advance(client, trace, index, index + 1)
            if metrics.uplink_messages > before:
                memory_reports.append(sample.time)

        # wire-true run: same server logic, but the client consumes bytes
        fired = set()
        monitor = ClientMonitor(fan=3, height=3)
        wire_reports = []
        for sample in samples:
            if not monitor.should_report(sample.time, sample.position):
                continue
            wire_reports.append(sample.time)
            for alarm in registry.triggered_at(0, sample.position,
                                               exclude_ids=fired):
                fired.add(alarm.alarm_id)
            cell = grid.cell_rect_of_point(sample.position)
            pending = [a.region for a in registry.relevant_intersecting(
                0, cell, exclude_ids=fired)]
            if use_bitmap:
                pyramid = Pyr(cell, fan_cols=3, fan_rows=3, height=3)
                bitmap = PyramidBitmap.from_obstacles(pyramid, pending)
                monitor.receive(encode_bitmap_region(0, bitmap),
                                cell_rect=cell)
            else:
                result = MWPSRComputer(SteadyMotionModel(1, 8)).compute(
                    sample.position, sample.heading, cell, pending)
                monitor.receive(encode_rect_region(result.rect),
                                cell_rect=cell)
        return memory_reports, wire_reports

    def test_rect_protocol(self):
        memory_reports, wire_reports = self._drive(use_bitmap=False)
        assert memory_reports == wire_reports

    def test_bitmap_protocol(self):
        memory_reports, wire_reports = self._drive(use_bitmap=True)
        assert memory_reports == wire_reports
