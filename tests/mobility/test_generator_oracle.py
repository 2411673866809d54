"""The trace generator against its per-fix definition.

``TraceGenerator`` runs each vehicle's fixes in one loop on locals.  Its
definition is the loop it replaced — :func:`reference_trace` below:
sample the vehicle where it stands, then advance it one interval along
the network, crossing as many edge endpoints as that interval reaches,
one call per step.  Both share the vehicle's seed, its start and the
choice of the next edge, so every column must agree bit for bit: on
sampling intervals other than 1 s, durations that are not a multiple
of the interval, both behaviours, dead ends (a U-turn) and edges shorter
than one interval's travel (several crossings in one step).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.mobility import MobilityConfig, Trace, TraceGenerator
from repro.mobility.simulator import _Vehicle
from repro.roadnet import RoadClass, RoadNetwork

from ..budget import examples

COLUMNS = ("times", "xs", "ys", "headings", "speeds")


def _advance(generator, vehicle, dt):
    remaining = dt
    for _ in range(1000):
        distance_left = vehicle.edge.length - vehicle.offset
        travel = vehicle.speed * remaining
        if travel < distance_left:
            vehicle.offset += travel
            return
        remaining -= distance_left / vehicle.speed
        arrived_at = vehicle.edge.other(vehicle.node_from)
        vehicle.enter(generator.network, arrived_at,
                      generator._next_edge(vehicle, arrived_at))
        if remaining <= 0.0:
            return
    raise RuntimeError("vehicle failed to make progress")


def _sample(trace, vehicle, time):
    fraction = vehicle.offset / vehicle.edge.length
    trace.append(time, vehicle.start_x + vehicle.delta_x * fraction,
                 vehicle.start_y + vehicle.delta_y * fraction,
                 vehicle.heading, vehicle.speed)


def reference_trace(generator, vehicle_id):
    """One vehicle's trace, a sample and an advance per step."""
    config = generator.config
    rng = random.Random(generator.seed * 1_000_003 + vehicle_id)
    speed_factor = rng.uniform(config.min_speed_factor,
                               config.max_speed_factor)
    node = generator._random_node_with_edges(rng)
    edge = rng.choice(list(generator.network.edges_at(node)))
    vehicle = _Vehicle(rng, speed_factor)
    vehicle.enter(generator.network, node, edge)
    trace = Trace(vehicle_id)
    interval = config.sample_interval_s
    time = 0.0
    _sample(trace, vehicle, time)
    for _ in range(int(config.duration_s / interval)):
        _advance(generator, vehicle, interval)
        time += interval
        _sample(trace, vehicle, time)
    return trace


def assert_matches_reference(network, config, seed):
    generator = TraceGenerator(network, config, seed=seed)
    traces = generator.generate()
    assert len(traces) == config.vehicle_count
    for vehicle_id in range(config.vehicle_count):
        expected = reference_trace(generator, vehicle_id)
        actual = traces[vehicle_id]
        for column in COLUMNS:
            assert (getattr(actual, column).tobytes()
                    == getattr(expected, column).tobytes()), \
                (vehicle_id, column)


def lowest_travel(interval):
    """The least distance any vehicle covers in one interval."""
    slowest = min(road.speed_limit for road in RoadClass)
    return slowest * MobilityConfig().min_speed_factor * interval


@st.composite
def cases(draw):
    """A connected network on a small lattice, and a mobility config.

    The network is a random tree (so it has dead ends) plus a few extra
    roads.  With ``short`` every road is shorter than the distance the
    slowest vehicle covers in one interval.
    """
    interval = draw(st.floats(0.25, 3.0))
    duration = draw(st.floats(interval, 40.0))
    short = draw(st.booleans())
    if short:
        # The longest road is the lattice's diagonal, 3 * sqrt(2) cells.
        spacing = draw(st.floats(0.1, 0.23)) * lowest_travel(interval)
    else:
        spacing = draw(st.floats(20.0, 400.0))
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=2, max_size=7, unique=True))
    network = RoadNetwork()
    for column, row in cells:
        network.add_node(Point(column * spacing, row * spacing))
    roads = set()
    for node in range(1, len(cells)):
        roads.add((draw(st.integers(0, node - 1)), node))
    for a, b in draw(st.lists(st.tuples(st.integers(0, len(cells) - 1),
                                        st.integers(0, len(cells) - 1)),
                              max_size=3)):
        if a != b and (a, b) not in roads and (b, a) not in roads:
            roads.add((a, b))
    for a, b in sorted(roads):
        network.add_edge(a, b, draw(st.sampled_from(list(RoadClass))))
    if short:
        assert all(edge.length < lowest_travel(interval)
                   for edge in network.edges())
    config = MobilityConfig(
        vehicle_count=draw(st.integers(1, 3)), duration_s=duration,
        sample_interval_s=interval,
        behaviour=draw(st.sampled_from(["wander", "trip"])))
    return network, config, draw(st.integers(0, 2**20))


@settings(max_examples=examples(60, 500), deadline=None)
@given(case=cases())
def test_generator_matches_the_per_fix_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("behaviour", ["wander", "trip"])
@pytest.mark.parametrize("length_m", [0.7, 250.0])
def test_one_road_u_turns_at_both_ends(behaviour, length_m):
    """A single road is a dead end both ways: every arrival U-turns,
    several times an interval when the road is short."""
    network = RoadNetwork()
    network.add_node(Point(0.0, 0.0))
    network.add_node(Point(length_m, 0.0))
    network.add_edge(0, 1, RoadClass.ARTERIAL)
    config = MobilityConfig(vehicle_count=2, duration_s=61.3,
                            sample_interval_s=0.7, behaviour=behaviour)
    assert_matches_reference(network, config, seed=5)
    xs = TraceGenerator(network, config, seed=5).generate()[0].xs
    assert min(xs) >= 0.0 and max(xs) <= length_m


@pytest.mark.parametrize("behaviour", ["wander", "trip"])
def test_steps_that_end_exactly_on_a_node(behaviour):
    """A road exactly one interval's travel long: each step reaches the
    far node with nothing left of the interval, which is a crossing."""
    speed = RoadClass.LOCAL.speed_limit
    network = RoadNetwork()
    for x in (0.0, speed, 2 * speed):
        network.add_node(Point(x, 0.0))
    network.add_edge(0, 1, RoadClass.LOCAL)
    network.add_edge(1, 2, RoadClass.LOCAL)
    config = MobilityConfig(vehicle_count=3, duration_s=30.0,
                            min_speed_factor=1.0, max_speed_factor=1.0,
                            behaviour=behaviour)
    assert_matches_reference(network, config, seed=2)
    trace = TraceGenerator(network, config, seed=2).generate()[0]
    assert set(trace.xs) <= {0.0, speed, 2 * speed}
