"""Tests for ground-truth computation and accuracy scoring.

``compute_ground_truth`` sweeps each trace against the alarms near it.
Its definition is the per-sample scan it replaced —
:func:`reference_ground_truth` below: ask the index at every sample
which relevant, not-yet-fired alarms strictly contain it — and the
oracle suite holds the sweep to that definition on adversarial worlds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import (Metrics, TriggerEvent, compute_ground_truth,
                          verify_accuracy)
from repro.engine.groundtruth import CHUNK_SAMPLES
from repro.experiments import TINY, build_world
from repro.geometry import Point, Rect
from repro.mobility import Trace, TraceSample, TraceSet


def make_traces(positions_by_vehicle):
    traces = {}
    for vid, positions in positions_by_vehicle.items():
        samples = [TraceSample(float(k), p, 0.0, 10.0)
                   for k, p in enumerate(positions)]
        traces[vid] = Trace(vid, samples)
    return TraceSet(traces, sample_interval=1.0)


def reference_ground_truth(registry, traces):
    """The definition: a point query per sample, one-shot per pair."""
    expected = {}
    for trace in traces:
        fired = set()
        for sample in trace:
            for alarm in registry.triggered_at(trace.vehicle_id,
                                               sample.position,
                                               exclude_ids=fired):
                fired.add(alarm.alarm_id)
                expected[(trace.vehicle_id, alarm.alarm_id)] = sample.time
    return expected


class TestGroundTruth:
    def test_first_entry_wins(self):
        registry = AlarmRegistry()
        alarm = registry.install(Rect(100, 0, 200, 50), AlarmScope.PUBLIC, 1)
        traces = make_traces({0: [Point(50, 25), Point(150, 25),
                                  Point(160, 25)]})
        expected = compute_ground_truth(registry, traces)
        assert expected == {(0, alarm.alarm_id): 1.0}

    def test_boundary_does_not_trigger(self):
        registry = AlarmRegistry()
        registry.install(Rect(100, 0, 200, 50), AlarmScope.PUBLIC, 1)
        traces = make_traces({0: [Point(100, 25), Point(100, 0)]})
        assert compute_ground_truth(registry, traces) == {}

    def test_relevance_respected(self):
        registry = AlarmRegistry()
        alarm = registry.install(Rect(100, 0, 200, 50), AlarmScope.PRIVATE, 5)
        traces = make_traces({0: [Point(150, 25)], 5: [Point(150, 25)]})
        expected = compute_ground_truth(registry, traces)
        assert expected == {(5, alarm.alarm_id): 0.0}

    def test_multiple_alarms_and_vehicles(self):
        registry = AlarmRegistry()
        a = registry.install(Rect(0, 0, 50, 50), AlarmScope.PUBLIC, 1)
        b = registry.install(Rect(100, 100, 150, 150), AlarmScope.PUBLIC, 1)
        traces = make_traces({
            0: [Point(25, 25), Point(125, 125)],
            1: [Point(500, 500), Point(125, 125)],
        })
        expected = compute_ground_truth(registry, traces)
        assert expected == {(0, a.alarm_id): 0.0, (0, b.alarm_id): 1.0,
                            (1, b.alarm_id): 1.0}


class TestVerifyAccuracy:
    EXPECTED = {(0, 1): 5.0, (0, 2): 8.0, (1, 1): 3.0}

    def test_perfect(self):
        metrics = Metrics(triggers=[TriggerEvent(5.0, 0, 1),
                                    TriggerEvent(8.0, 0, 2),
                                    TriggerEvent(3.0, 1, 1)])
        report = verify_accuracy(self.EXPECTED, metrics)
        assert report.perfect
        assert report.recall == 1.0
        assert report.expected == 3

    def test_missed(self):
        metrics = Metrics(triggers=[TriggerEvent(5.0, 0, 1)])
        report = verify_accuracy(self.EXPECTED, metrics)
        assert report.missed == 2
        assert report.recall == pytest.approx(1 / 3)
        assert not report.perfect

    def test_spurious(self):
        metrics = Metrics(triggers=[TriggerEvent(5.0, 0, 1),
                                    TriggerEvent(8.0, 0, 2),
                                    TriggerEvent(3.0, 1, 1),
                                    TriggerEvent(1.0, 9, 9)])
        report = verify_accuracy(self.EXPECTED, metrics)
        assert report.spurious == 1
        assert not report.perfect

    def test_late(self):
        metrics = Metrics(triggers=[TriggerEvent(6.0, 0, 1),
                                    TriggerEvent(8.0, 0, 2),
                                    TriggerEvent(3.0, 1, 1)])
        report = verify_accuracy(self.EXPECTED, metrics)
        assert report.late == 1
        assert report.missed == 0
        assert not report.perfect

    def test_duplicate_delivery_keeps_first(self):
        metrics = Metrics(triggers=[TriggerEvent(5.0, 0, 1),
                                    TriggerEvent(7.0, 0, 1),
                                    TriggerEvent(8.0, 0, 2),
                                    TriggerEvent(3.0, 1, 1)])
        report = verify_accuracy(self.EXPECTED, metrics)
        assert report.perfect

    def test_empty_expected_recall_is_one(self):
        report = verify_accuracy({}, Metrics())
        assert report.recall == 1.0
        assert report.perfect


# ----------------------------------------------------------------------
# The sweep against its per-sample definition
# ----------------------------------------------------------------------
USERS = (0, 1, 2)
EDGES = [float(k) for k in range(0, 11, 2)]  # alarm edges sit on these


@st.composite
def near_edge(draw):
    """A coordinate on an alarm edge, one ulp either side, or clear of it."""
    edge = draw(st.sampled_from(EDGES))
    return draw(st.sampled_from([edge, math.nextafter(edge, math.inf),
                                 math.nextafter(edge, -math.inf),
                                 edge + 1.0, edge - 0.5]))


points = st.builds(Point, near_edge(), near_edge())


@st.composite
def traces_of(draw):
    """Moving, stationary, shorter-than-a-chunk and empty traces."""
    traces = {}
    for user in USERS:
        if draw(st.booleans()):
            spot = draw(points)
            positions = [spot] * draw(st.integers(0, 2 * CHUNK_SAMPLES + 3))
        else:
            positions = draw(st.lists(points,
                                      max_size=2 * CHUNK_SAMPLES + 3))
            if positions and draw(st.booleans()):
                # park for longer than a chunk: zero-area chunk boxes
                positions[1:1] = [positions[0]] * (CHUNK_SAMPLES + 1)
        traces[user] = positions
    return make_traces(traces)


@st.composite
def alarm_specs(draw):
    """Abutting, nested, zero-area and universe-covering regions."""
    if draw(st.integers(0, 9)) == 0:
        region = Rect(-5.0, -5.0, 20.0, 20.0)
    else:
        x, y = draw(st.sampled_from(EDGES)), draw(st.sampled_from(EDGES))
        region = Rect(x, y, x + draw(st.sampled_from([0.0, 2.0, 4.0, 10.0])),
                      y + draw(st.sampled_from([0.0, 2.0, 4.0, 10.0])))
    scope = draw(st.sampled_from(list(AlarmScope)))
    owner = draw(st.sampled_from(USERS + (7,)))  # 7 has no trace
    subscribers = ()
    if scope is AlarmScope.SHARED:
        subscribers = draw(st.lists(st.sampled_from(USERS + (7,)),
                                    min_size=1, max_size=2))
    return region, scope, owner, subscribers


def install_specs(specs):
    registry = AlarmRegistry(max_tree_entries=4)
    for region, scope, owner, subscribers in specs:
        registry.install(region, scope, owner, subscribers=subscribers)
    return registry


class TestSweepEqualsPerSampleScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(alarm_specs(), max_size=25), traces_of())
    def test_property_adversarial_worlds(self, specs, traces):
        registry = install_specs(specs)
        assert (compute_ground_truth(registry, traces)
                == reference_ground_truth(registry, traces))

    def test_generated_world(self):
        world = build_world(TINY)
        assert (compute_ground_truth(world.registry, world.traces)
                == reference_ground_truth(world.registry, world.traces))

    @pytest.mark.parametrize("entry", [0, CHUNK_SAMPLES - 1, CHUNK_SAMPLES,
                                       CHUNK_SAMPLES + 1,
                                       2 * CHUNK_SAMPLES])
    def test_first_hit_at_a_chunk_seam(self, entry):
        registry = AlarmRegistry()
        alarm = registry.install(Rect(10, 0, 20, 10), AlarmScope.PUBLIC, 1)
        positions = ([Point(5.0, 5.0)] * entry
                     + [Point(15.0, 5.0)] * (2 * CHUNK_SAMPLES))
        assert compute_ground_truth(registry, make_traces({0: positions})) \
            == {(0, alarm.alarm_id): float(entry)}

    def test_parked_on_a_corner_then_one_ulp_inside(self):
        registry = AlarmRegistry()
        alarm = registry.install(Rect(2, 2, 4, 4), AlarmScope.PUBLIC, 1)
        inside = Point(math.nextafter(2.0, 3.0), math.nextafter(2.0, 3.0))
        positions = [Point(2.0, 2.0)] * (CHUNK_SAMPLES + 5) + [inside]
        assert compute_ground_truth(registry, make_traces({0: positions})) \
            == {(0, alarm.alarm_id): float(CHUNK_SAMPLES + 5)}

    def test_zero_area_alarm_never_fires(self):
        registry = AlarmRegistry()
        registry.install(Rect(3, 0, 3, 10), AlarmScope.PUBLIC, 1)
        registry.install(Rect(5, 5, 5, 5), AlarmScope.PUBLIC, 1)
        traces = make_traces({0: [Point(3.0, 5.0), Point(5.0, 5.0)]})
        assert compute_ground_truth(registry, traces) == {}

    def test_empty_trace_and_empty_registry(self):
        registry = AlarmRegistry()
        assert compute_ground_truth(registry, make_traces({0: []})) == {}
        assert compute_ground_truth(
            registry, make_traces({0: [Point(1.0, 1.0)]})) == {}
