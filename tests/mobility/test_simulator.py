"""Tests for the vehicle mobility simulator and trace containers."""


import pytest

from repro.geometry import Point
from repro.mobility import (MobilityConfig, Trace, TraceGenerator,
                            TraceSample, TraceSet)
from repro.roadnet import NetworkConfig, RoadClass, generate_network

NETWORK = generate_network(NetworkConfig(universe_side_m=3000.0,
                                         lattice_spacing_m=500.0), seed=2)
CONFIG = MobilityConfig(vehicle_count=6, duration_s=120.0,
                        sample_interval_s=1.0)


@pytest.fixture(scope="module")
def traces():
    return TraceGenerator(NETWORK, CONFIG, seed=3).generate()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MobilityConfig(vehicle_count=0)
        with pytest.raises(ValueError):
            MobilityConfig(duration_s=0)
        with pytest.raises(ValueError):
            MobilityConfig(behaviour="teleport")
        with pytest.raises(ValueError):
            MobilityConfig(min_speed_factor=0.9, max_speed_factor=0.5)


class TestTraceGeneration:
    def test_counts(self, traces):
        assert len(traces) == 6
        expected_samples = int(CONFIG.duration_s) + 1
        for trace in traces:
            assert len(trace) == expected_samples

    def test_times_regular(self, traces):
        trace = traces[0]
        for index, sample in enumerate(trace):
            assert sample.time == pytest.approx(index * 1.0)
        assert trace.duration == pytest.approx(CONFIG.duration_s)

    def test_deterministic(self):
        first = TraceGenerator(NETWORK, CONFIG, seed=3).generate()
        second = TraceGenerator(NETWORK, CONFIG, seed=3).generate()
        for vid in first.vehicle_ids():
            for s1, s2 in zip(first[vid], second[vid]):
                assert s1 == s2

    def test_seed_changes_traces(self):
        first = TraceGenerator(NETWORK, CONFIG, seed=3).generate()
        second = TraceGenerator(NETWORK, CONFIG, seed=4).generate()
        assert any(s1.position != s2.position
                   for s1, s2 in zip(first[0], second[0]))

    def test_positions_on_network(self, traces):
        """Every sampled position lies on some road segment."""
        segments = []
        for edge in NETWORK.edges():
            segments.append((NETWORK.position(edge.node_a),
                             NETWORK.position(edge.node_b)))

        def on_any_segment(p):
            for a, b in segments:
                ab = b - a
                ap = p - a
                denom = ab.x * ab.x + ab.y * ab.y
                t = (ap.x * ab.x + ap.y * ab.y) / denom
                if -1e-9 <= t <= 1 + 1e-9:
                    proj = Point(a.x + ab.x * t, a.y + ab.y * t)
                    if proj.distance_to(p) < 1e-6:
                        return True
            return False

        trace = traces[0]
        for x, y in zip(trace.xs[::10], trace.ys[::10]):
            assert on_any_segment(Point(x, y))

    def test_speeds_within_limits(self, traces):
        max_limit = RoadClass.HIGHWAY.speed_limit
        for trace in traces:
            for sample in trace:
                assert 0 < sample.speed <= max_limit * 1.0 + 1e-9

    def test_motion_continuity(self, traces):
        """Per-interval displacement never exceeds speed * interval."""
        max_limit = RoadClass.HIGHWAY.speed_limit
        for trace in traces:
            samples = list(trace)
            for before, after in zip(samples, samples[1:]):
                moved = before.position.distance_to(after.position)
                assert moved <= max_limit * CONFIG.sample_interval_s + 1e-6

    def test_vehicles_actually_move(self, traces):
        for trace in traces:
            assert trace[0].position.distance_to(
                trace[len(trace) - 1].position) > 0 or \
                trace.bounding_rect().area >= 0

    def test_trip_behaviour(self):
        config = MobilityConfig(vehicle_count=2, duration_s=60.0,
                                behaviour="trip")
        traces = TraceGenerator(NETWORK, config, seed=5).generate()
        assert all(len(trace) == 61 for trace in traces)


class TestTraceContainers:
    def test_trace_set_totals(self, traces):
        assert traces.total_samples == 6 * 121
        assert traces.vehicle_ids() == list(range(6))
        assert traces.duration() == pytest.approx(120.0)
        assert traces.max_speed() > 0

    def test_empty_trace(self):
        trace = Trace(0, [])
        assert trace.duration == 0.0
        assert trace.max_speed() == 0.0
        with pytest.raises(ValueError):
            trace.bounding_rect()

    def test_trace_set_validation(self):
        with pytest.raises(ValueError):
            TraceSet({}, sample_interval=0)

    def test_bounding_rect(self):
        trace = Trace(0, [TraceSample(0, Point(0, 0), 0, 1),
                          TraceSample(1, Point(10, -5), 0, 1)])
        rect = trace.bounding_rect()
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == \
            (0, -5, 10, 0)
