"""Microbenchmarks: the R*-tree under the server's query mix.

Unlike the figure benches (one-shot harness timings), these are
statistical pytest-benchmark measurements of the individual operations
the alarm server performs millions of times at full scale: point
containment evaluation (every location report), interior range queries
(every safe-region computation) and nearest-distance probes (every
safe-period computation); plus the build-path comparison between
incremental insertion and STR bulk loading, what packing does to a point
query's node count (population-dependent: x0.8 on this 2,000-alarm
square, x1.17 on bench_e2e's 10,000-alarm ``metro``), and the
ground-truth sweep against the per-sample scan it replaced.
"""

import random

import pytest

from repro.engine import compute_ground_truth
from repro.geometry import Point, Rect
from repro.index import RStarTree

ALARM_COUNT = 2000


def _items(seed=1, count=ALARM_COUNT):
    rng = random.Random(seed)
    items = []
    for index in range(count):
        x = rng.uniform(0, 10000)
        y = rng.uniform(0, 10000)
        side = rng.uniform(50, 250)
        items.append((index, Rect(x, y, x + side, y + side)))
    return items


@pytest.fixture(scope="module")
def tree():
    return RStarTree.bulk_load(_items(), max_entries=16)


@pytest.fixture(scope="module")
def probe_points():
    rng = random.Random(2)
    return [Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            for _ in range(256)]


@pytest.fixture(scope="module")
def grown_tree():
    tree = RStarTree(max_entries=16)
    for item, rect in _items():
        tree.insert(item, rect)
    return tree


def test_point_containment_query_insert_built(benchmark, grown_tree,
                                              probe_points):
    """The same point query on the tree N inserts grow (the pre-PR-15
    registry): more, emptier leaves."""
    cycler = iter(range(10**9))

    def probe():
        p = probe_points[next(cycler) % len(probe_points)]
        return grown_tree.search_containing(p, interior=True)

    benchmark(probe)


def test_packed_tree_query_cost_is_bounded(tree, grown_tree, probe_points):
    """STR's price, in the unit the server's cost model counts."""
    for index in (tree, grown_tree):
        index.stats.reset()
        for p in probe_points:
            index.search_containing(p, interior=True)
    ratio = tree.stats.node_accesses / grown_tree.stats.node_accesses
    print("\nnodes/query packed %.2f, insert-built %.2f (x%.2f)"
          % (tree.stats.node_accesses / len(probe_points),
             grown_tree.stats.node_accesses / len(probe_points), ratio))
    assert ratio < 1.5


def test_point_containment_query(benchmark, tree, probe_points):
    """The per-location-report evaluation (PRD does this on every fix)."""
    cycler = iter(range(10**9))

    def probe():
        p = probe_points[next(cycler) % len(probe_points)]
        return tree.search_containing(p, interior=True)

    benchmark(probe)


def test_cell_range_query(benchmark, tree, probe_points):
    """The safe-region working-set query (one per recomputation)."""
    cycler = iter(range(10**9))

    def query():
        p = probe_points[next(cycler) % len(probe_points)]
        cell = Rect(p.x - 790, p.y - 790, p.x + 790, p.y + 790)
        return tree.search_interior_intersecting(cell)

    benchmark(query)


def test_nearest_distance_query(benchmark, tree, probe_points):
    """The safe-period bound (one per SP report)."""
    cycler = iter(range(10**9))

    def nearest():
        p = probe_points[next(cycler) % len(probe_points)]
        return tree.nearest_distance(p)

    benchmark(nearest)


def test_incremental_build(benchmark):
    items = _items(count=500)

    def build():
        tree = RStarTree(max_entries=16)
        for item, rect in items:
            tree.insert(item, rect)
        return tree

    built = benchmark(build)
    built.validate()


def test_str_bulk_load(benchmark):
    items = _items(count=500)
    built = benchmark(RStarTree.bulk_load, items, 16)
    built.validate()


def test_ground_truth_sweep(benchmark, warm_bench_world):
    """The whole BENCH oracle: one range query and a chunked sweep per
    trace (72,120 samples)."""
    world = warm_bench_world
    truth = benchmark(compute_ground_truth, world.registry, world.traces)
    assert truth == world.ground_truth()


def test_ground_truth_per_sample_scan(benchmark, warm_bench_world):
    """What the sweep replaced: a point query at every sample."""
    world = warm_bench_world

    def scan():
        expected = {}
        for trace in world.traces:
            fired = set()
            for sample in trace:
                for alarm in world.registry.triggered_at(
                        trace.vehicle_id, sample.position,
                        exclude_ids=fired):
                    fired.add(alarm.alarm_id)
                    expected[(trace.vehicle_id,
                              alarm.alarm_id)] = sample.time
        return expected

    assert benchmark.pedantic(scan, rounds=3) == world.ground_truth()
