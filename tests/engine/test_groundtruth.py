"""Tests for ground-truth computation and accuracy scoring.

``compute_ground_truth`` sweeps each trace against the alarms near it.
Its definition is the per-sample scan it replaced —
:func:`reference_ground_truth` below: ask the index at every sample
which relevant, not-yet-fired alarms strictly contain it — and the
oracle suite holds the sweep to that definition on adversarial worlds.

``compute_mutating_ground_truth`` does the same for a world whose alarms
come, go and move: it turns the mutation's step changes into alarm
lifetimes and sweeps those.  Its definition is the per-step scan it
replaced — :func:`reference_mutating_ground_truth`: apply the step's
changes, then ask the index at every client's sample of that step.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import (AlarmSchedule, InstallAction, Metrics,
                          RemoveAction, TargetTrack, TriggerEvent, World,
                          compute_dynamic_ground_truth, compute_ground_truth,
                          compute_tracking_ground_truth, verify_accuracy)
from repro.engine.dynamic import ScheduleMutation
from repro.engine.groundtruth import CHUNK_SAMPLES
from repro.engine.simulation import (_clone_registry,
                                     compute_mutating_ground_truth,
                                     in_process_link, run_session)
from repro.engine.tracking import TrackMutation
from repro.experiments import TINY, build_world
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.mobility import Trace, TraceSample, TraceSet
from ..budget import examples
from ..strategies.conftest import make_world
from .test_golden_protocol import STRATEGY_NAMES, _factory


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


def reference_mutating_ground_truth(world, mutation):
    """The definition: the registry as it stands at each step."""
    registry = _clone_registry(world.registry)
    bound = mutation(registry, world.traces.sample_interval)
    fired = {trace.vehicle_id: set() for trace in world.traces}
    expected = {}
    for step in range(max((len(trace) for trace in world.traces),
                          default=0)):
        bound.apply(step)
        for trace in world.traces:
            if step >= len(trace):
                continue
            sample = trace[step]
            user_fired = fired[trace.vehicle_id]
            for alarm in registry.triggered_at(trace.vehicle_id,
                                               sample.position,
                                               exclude_ids=user_fired):
                user_fired.add(alarm.alarm_id)
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


# ----------------------------------------------------------------------
# The lifetime sweep against its per-step definition
# ----------------------------------------------------------------------
UNIVERSE = Rect(-5.0, -5.0, 20.0, 20.0)
LAST_STEP = 2 * CHUNK_SAMPLES + 2  # traces_of() draws at most this + 1 fixes


def small_world(specs, traces):
    return World(universe=UNIVERSE, grid=GridOverlay(UNIVERSE, 1e-4),
                 registry=install_specs(specs), traces=traces)


class BothMutations:
    """A schedule and a set of tracks on one registry, in that order."""

    def __init__(self, schedule, tracks, registry, sample_interval):
        self.parts = (ScheduleMutation(schedule, registry, sample_interval),
                      TrackMutation(tracks, registry, sample_interval))

    def apply(self, step):
        for part in self.parts:
            part.apply(step)


#: Action times: on a sample, either side of a step window's end
#: (``k + 0.5``), before the run and past the longest trace — mostly
#: early, where the (mostly short) drawn traces still have fixes.
action_times = st.builds(
    lambda step, offset: step + offset,
    st.one_of(st.integers(-1, 8), st.integers(-1, LAST_STEP + 3)),
    st.sampled_from([0.0, 0.25, math.nextafter(0.5, 0.0), 0.5, 0.75]))


@st.composite
def schedules_of(draw, preinstalled, spare_ids=()):
    """Installs, removals of them (often in the very same step window),
    removals of pre-installed alarms (twice, or of ids that never were)."""
    installs = sorted(draw(st.lists(st.tuples(action_times, alarm_specs()),
                                    max_size=12)), key=lambda pair: pair[0])
    actions = [InstallAction(time, region, scope, owner,
                             subscribers=tuple(subscribers))
               for time, (region, scope, owner, subscribers) in installs]
    for index, (time, _spec) in enumerate(installs):
        if draw(st.booleans()):
            later = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 7.0, 40.0]))
            actions.append(RemoveAction(time + later, install_index=index))
    removable = [alarm_id for alarm_id in range(preinstalled + 2)
                 if alarm_id not in spare_ids]
    for alarm_id in draw(st.lists(st.sampled_from(removable), max_size=6)):
        actions.append(RemoveAction(draw(action_times), alarm_id=alarm_id))
    return AlarmSchedule(actions)


@st.composite
def tracks_of(draw, alarm_ids):
    """Tracks shorter and longer than the run, that stand still, revisit
    a region and hop between edge-aligned ones."""
    tracks = []
    for alarm_id in alarm_ids:
        regions = draw(st.lists(alarm_specs().map(lambda spec: spec[0]),
                                min_size=1, max_size=6))
        path = draw(st.lists(st.sampled_from(regions), min_size=1,
                             max_size=LAST_STEP + 5))
        tracks.append(TargetTrack(alarm_id, tuple(path)))
    return tracks


@st.composite
def hopping_traces(draw):
    """Vehicles that park, hop and park again: with action times drawn
    from the same few early steps, a hop into a region often lands on
    the very step the region appears, moves or goes."""
    traces = {}
    for user in USERS:
        legs = draw(st.lists(st.tuples(points, st.sampled_from(
            [1, 1, 2, 3, 5, CHUNK_SAMPLES])), max_size=6))
        traces[user] = [spot for spot, fixes in legs for _ in range(fixes)]
    return make_traces(traces)


@st.composite
def mutating_worlds(draw):
    specs = draw(st.lists(alarm_specs(), max_size=10))
    world = small_world(specs, draw(st.one_of(traces_of(),
                                              hopping_traces())))
    tracked = draw(st.lists(st.sampled_from(range(len(specs))), max_size=3,
                            unique=True)) if specs else []
    return (world, draw(schedules_of(len(specs), spare_ids=tracked)),
            draw(tracks_of(tracked)))


class TestLifetimeSweepEqualsPerStepScan:
    @settings(max_examples=examples(60, 300), deadline=None)
    @given(mutating_worlds())
    def test_property_schedules_and_tracks(self, drawn):
        world, schedule, tracks = drawn
        for mutation in (functools.partial(ScheduleMutation, schedule),
                         functools.partial(TrackMutation, tracks),
                         functools.partial(BothMutations, schedule, tracks)):
            assert (compute_mutating_ground_truth(world, mutation)
                    == reference_mutating_ground_truth(world, mutation))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(alarm_specs(), min_size=1, max_size=10), traces_of())
    def test_property_nothing_changes_is_the_static_ground_truth(
            self, specs, traces):
        world = small_world(specs, traces)
        static = compute_ground_truth(world.registry, traces)
        assert compute_dynamic_ground_truth(world, AlarmSchedule([])) == static
        parked = [TargetTrack(0, (world.registry.get(0).region,))]
        assert compute_tracking_ground_truth(world, parked) == static

    # -- the named cases, one each -------------------------------------
    INSIDE = Rect(2.0, 2.0, 6.0, 6.0)

    def parked_world(self, fixes=10, specs=()):
        return small_world(specs, make_traces({0: [Point(4.0, 4.0)] * fixes}))

    def dynamic(self, world, actions):
        schedule = AlarmSchedule(actions)
        expected = compute_dynamic_ground_truth(world, schedule)
        assert expected == reference_mutating_ground_truth(
            world, functools.partial(ScheduleMutation, schedule))
        return expected

    def tracking(self, world, tracks):
        expected = compute_tracking_ground_truth(world, tracks)
        assert expected == reference_mutating_ground_truth(
            world, functools.partial(TrackMutation, tracks))
        return expected

    def test_installed_and_removed_inside_one_step_window(self):
        # The registry tells of the alarm's install *and* its removal
        # by step 3: it was never live at a sample
        assert self.dynamic(self.parked_world(), [
            InstallAction(3.0, self.INSIDE, AlarmScope.PUBLIC, 0),
            RemoveAction(3.25, install_index=0)]) == {}

    def test_removed_one_step_after_its_install(self):
        assert self.dynamic(self.parked_world(), [
            InstallAction(3.0, self.INSIDE, AlarmScope.PUBLIC, 0),
            RemoveAction(4.0, install_index=0)]) == {(0, 0): 3.0}

    def test_removal_of_a_preinstalled_alarm(self):
        specs = [(self.INSIDE, AlarmScope.PUBLIC, 0, ())]
        traces = make_traces({0: [Point(0.0, 0.0)] * 5 + [Point(4.0, 4.0)]})
        world = small_world(specs, traces)
        assert self.dynamic(world, [RemoveAction(5.0, alarm_id=0)]) == {}
        assert self.dynamic(world, [RemoveAction(5.5, alarm_id=0),
                                    RemoveAction(6.0, alarm_id=0),
                                    RemoveAction(1.0, alarm_id=99)]) \
            == {(0, 0): 5.0}

    def test_alarm_alive_only_for_the_last_step(self):
        world = self.parked_world(fixes=CHUNK_SAMPLES + 1)
        last = float(CHUNK_SAMPLES)
        assert self.dynamic(world, [
            InstallAction(last, self.INSIDE, AlarmScope.PUBLIC, 0)]) \
            == {(0, 0): last}
        assert self.dynamic(world, [
            InstallAction(last + 1.0, self.INSIDE, AlarmScope.PUBLIC, 0)]) \
            == {}

    def test_target_relocated_onto_a_parked_vehicle_and_off_again(self):
        away = Rect(10.0, 10.0, 14.0, 14.0)
        specs = [(away, AlarmScope.PUBLIC, 0, ())]
        world = self.parked_world(specs=specs)
        track = TargetTrack(0, (away, away, self.INSIDE, away))
        assert self.tracking(world, [track]) == {(0, 0): 2.0}
        # on the vehicle's position only as an edge: never strictly inside
        edge = Rect(4.0, 2.0, 8.0, 6.0)
        assert self.tracking(world, [TargetTrack(0, (away, edge, away))]) \
            == {}

    def test_track_shorter_than_the_run_parks_on_its_last_region(self):
        away = Rect(10.0, 10.0, 14.0, 14.0)
        world = small_world(
            [(away, AlarmScope.PUBLIC, 0, ())],
            make_traces({0: [Point(0.0, 0.0)] * 6 + [Point(4.0, 4.0)]}))
        assert self.tracking(world, [TargetTrack(0, (away, self.INSIDE))]) \
            == {(0, 0): 6.0}

    def test_unequal_traces_shorter_than_a_chunk(self):
        traces = make_traces({0: [Point(4.0, 4.0)] * 3,
                              1: [Point(4.0, 4.0)] * 7, 2: []})
        world = small_world([], traces)
        assert self.dynamic(world, [
            InstallAction(5.0, self.INSIDE, AlarmScope.PUBLIC, 0)]) \
            == {(1, 0): 5.0}

    def test_samples_exactly_on_region_edges(self):
        inside = math.nextafter(2.0, 3.0)
        traces = make_traces({0: [Point(2.0, 4.0), Point(6.0, 6.0),
                                  Point(inside, inside)]})
        assert self.dynamic(small_world([], traces), [
            InstallAction(0.0, self.INSIDE, AlarmScope.PUBLIC, 0)]) \
            == {(0, 0): 2.0}

    def test_alarm_relevant_only_to_another_user(self):
        traces = make_traces({0: [Point(4.0, 4.0)] * 4,
                              1: [Point(4.0, 4.0)] * 4})
        assert self.dynamic(small_world([], traces), [
            InstallAction(1.0, self.INSIDE, AlarmScope.PRIVATE, 1),
            InstallAction(2.0, self.INSIDE, AlarmScope.SHARED, 7,
                          subscribers=(1,))]) == {(1, 0): 1.0, (1, 1): 2.0}

    def unreported(self):
        """A parked client's world, and a mutation that moves an alarm
        onto it at step 2 and returns empty change lists: the engine
        must hear the move from the registry, not from ``apply``."""
        class Unreported(TrackMutation):
            def apply(self, step):
                super().apply(step)
                return (), ()

        away = Rect(10.0, 10.0, 14.0, 14.0)
        world = self.parked_world(specs=[(away, AlarmScope.PUBLIC, 0, ())])
        return world, functools.partial(
            Unreported, [TargetTrack(0, (away, away, self.INSIDE))])

    def test_oracle_hears_the_registry_not_the_mutations_reports(self):
        world, mutation = self.unreported()
        assert compute_mutating_ground_truth(world, mutation) \
            == reference_mutating_ground_truth(world, mutation) \
            == {(0, 0): 2.0}

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_unreported_change_still_wakes_the_client(self, name):
        """The replay hears a step's changes from the registry too, so
        what a mutation reports cannot leave a client asleep."""
        world, mutation = self.unreported()
        result = run_session(world, _factory(name, world.max_speed())(),
                             in_process_link, mutation=mutation)
        accuracy = result.accuracy
        assert (accuracy.missed, accuracy.spurious, accuracy.late) \
            == (0, 0, 0)
        assert result.metrics.fired_pairs() == {(0, 0)}

    # -- the fixed points ----------------------------------------------
    def test_golden_dynamic_and_tracking_worlds(self):
        from .test_golden_mutation import golden_schedule, golden_track
        world = make_world()
        assert self.dynamic(world, golden_schedule(world).actions)
        assert self.tracking(world, [golden_track(world)])

    @pytest.mark.parametrize("seed", [3, 7])
    def test_benchmark_fleet_under_churn(self, seed):
        worlds = pytest.importorskip("bench_e2e.worlds")
        config = worlds.world_config("fleet", seed)
        world = build_world(config)
        schedule = worlds.churn_schedule(world, config, seed)
        assert self.dynamic(world, schedule.actions)
