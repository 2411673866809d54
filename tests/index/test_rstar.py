"""Correctness tests for the R*-tree: brute-force equivalence + invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import RStarTree

coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def small_rects(draw):
    x = draw(coords)
    y = draw(coords)
    w = draw(st.floats(min_value=0.0, max_value=80.0))
    h = draw(st.floats(min_value=0.0, max_value=80.0))
    return Rect(x, y, x + w, y + h)


def brute_intersecting(items, query):
    return sorted(i for i, r in items if r.intersects(query))


def brute_interior_intersecting(items, query):
    return sorted(i for i, r in items if r.interior_intersects(query))


def brute_containing(items, p, interior=False):
    if interior:
        return sorted(i for i, r in items if r.interior_contains_point(p))
    return sorted(i for i, r in items if r.contains_point(p))


def build(items, max_entries=8):
    tree = RStarTree(max_entries=max_entries)
    for item, rect in items:
        tree.insert(item, rect)
    return tree


def random_items(n, seed=0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x = rng.uniform(0, 1000)
        y = rng.uniform(0, 1000)
        w = rng.uniform(0, 60)
        h = rng.uniform(0, 60)
        items.append((i, Rect(x, y, x + w, y + h)))
    return items


class TestBasics:
    def test_empty_tree(self):
        tree = RStarTree()
        assert len(tree) == 0
        assert tree.search_intersecting(Rect(0, 0, 10, 10)) == []
        assert tree.nearest_distance(Point(0, 0)) == math.inf
        tree.validate()

    def test_min_max_entries_guard(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)

    def test_single_insert(self):
        tree = RStarTree()
        tree.insert("a", Rect(0, 0, 1, 1))
        assert len(tree) == 1
        assert tree.search_intersecting(Rect(0.5, 0.5, 2, 2)) == ["a"]
        assert tree.search_intersecting(Rect(5, 5, 6, 6)) == []
        tree.validate()

    def test_duplicate_rects_allowed(self):
        tree = RStarTree()
        r = Rect(0, 0, 1, 1)
        for i in range(20):
            tree.insert(i, r)
        assert sorted(tree.search_intersecting(r)) == list(range(20))
        tree.validate()

    def test_height_grows(self):
        tree = build(random_items(300), max_entries=8)
        assert tree.height >= 3
        tree.validate()

    def test_items_iteration(self):
        items = random_items(50)
        tree = build(items)
        assert sorted(tree.items()) == sorted(items)


class TestQueriesMatchBruteForce:
    def test_intersecting_queries(self):
        items = random_items(400, seed=1)
        tree = build(items)
        tree.validate()
        rng = random.Random(2)
        for _ in range(50):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            query = Rect(x, y, x + rng.uniform(0, 300),
                         y + rng.uniform(0, 300))
            assert sorted(tree.search_intersecting(query)) == \
                brute_intersecting(items, query)
            assert sorted(tree.search_interior_intersecting(query)) == \
                brute_interior_intersecting(items, query)

    def test_point_queries(self):
        items = random_items(400, seed=3)
        tree = build(items)
        rng = random.Random(4)
        for _ in range(100):
            p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            assert sorted(tree.search_containing(p)) == \
                brute_containing(items, p)
            assert sorted(tree.search_containing(p, interior=True)) == \
                brute_containing(items, p, interior=True)

    def test_boundary_point_interior_vs_closed(self):
        tree = RStarTree()
        tree.insert("a", Rect(0, 0, 10, 10))
        edge = Point(0, 5)
        assert tree.search_containing(edge) == ["a"]
        assert tree.search_containing(edge, interior=True) == []

    def test_nearest_distance(self):
        items = random_items(300, seed=5)
        tree = build(items)
        rng = random.Random(6)
        for _ in range(50):
            p = Point(rng.uniform(-200, 1200), rng.uniform(-200, 1200))
            expected = min(r.distance_to_point(p) for _, r in items)
            assert tree.nearest_distance(p) == pytest.approx(expected)

    def test_nearest_distance_with_predicate(self):
        items = random_items(200, seed=7)
        tree = build(items)
        even = lambda i: i % 2 == 0
        p = Point(500, 500)
        expected = min(r.distance_to_point(p) for i, r in items if even(i))
        assert tree.nearest_distance(p, predicate=even) == pytest.approx(
            expected)

    def test_range_searches_take_no_predicate(self):
        """Range searches answer for every item; the alarm registry
        partitions by audience instead of filtering (only
        ``nearest_distance`` keeps a predicate, for fired alarms)."""
        items = random_items(200, seed=8)
        tree = build(items)
        query = Rect(0, 0, 1000, 1000)
        odd = lambda i: i % 2 == 1
        for search in (tree.search_intersecting,
                       tree.search_interior_intersecting):
            with pytest.raises(TypeError):
                search(query, predicate=odd)


class TestDeletion:
    def test_delete_existing(self):
        items = random_items(100, seed=9)
        tree = build(items)
        for item, rect in items[:50]:
            assert tree.delete(item, rect)
        assert len(tree) == 50
        tree.validate()
        remaining = dict(items[50:])
        query = Rect(0, 0, 1000, 1000)
        assert sorted(tree.search_intersecting(query)) == \
            sorted(remaining.keys())

    def test_delete_missing_returns_false(self):
        tree = build(random_items(10))
        assert not tree.delete("nope", Rect(0, 0, 1, 1))
        assert len(tree) == 10

    def test_delete_all_then_reinsert(self):
        items = random_items(120, seed=10)
        tree = build(items, max_entries=6)
        for item, rect in items:
            assert tree.delete(item, rect)
        assert len(tree) == 0
        tree.validate()
        for item, rect in items:
            tree.insert(item, rect)
        assert len(tree) == len(items)
        tree.validate()

    def test_interleaved_insert_delete(self):
        rng = random.Random(11)
        tree = RStarTree(max_entries=6)
        live = {}
        next_id = 0
        for _ in range(800):
            if live and rng.random() < 0.45:
                victim = rng.choice(list(live))
                assert tree.delete(victim, live.pop(victim))
            else:
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                rect = Rect(x, y, x + rng.uniform(0, 40),
                            y + rng.uniform(0, 40))
                tree.insert(next_id, rect)
                live[next_id] = rect
                next_id += 1
        tree.validate()
        assert len(tree) == len(live)
        query = Rect(100, 100, 400, 400)
        assert sorted(tree.search_intersecting(query)) == \
            sorted(i for i, r in live.items() if r.intersects(query))


class TestStats:
    def test_node_accesses_counted(self):
        tree = build(random_items(200))
        tree.stats.reset()
        tree.search_intersecting(Rect(0, 0, 10, 10))
        assert tree.stats.node_accesses >= 1

    def test_splits_and_reinserts_recorded(self):
        tree = build(random_items(300), max_entries=6)
        assert tree.stats.splits > 0
        assert tree.stats.reinserts > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(small_rects(), min_size=0, max_size=120),
       small_rects())
def test_property_query_equivalence(rect_list, query):
    items = list(enumerate(rect_list))
    tree = build(items, max_entries=5)
    tree.validate()
    assert sorted(tree.search_intersecting(query)) == \
        brute_intersecting(items, query)
    center = query.center
    assert sorted(tree.search_containing(center)) == \
        brute_containing(items, center)


@settings(max_examples=20, deadline=None)
@given(st.lists(small_rects(), min_size=1, max_size=80),
       st.integers(min_value=0, max_value=79))
def test_property_delete_one(rect_list, victim_index):
    items = list(enumerate(rect_list))
    victim_index %= len(items)
    tree = build(items, max_entries=5)
    victim, victim_rect = items[victim_index]
    assert tree.delete(victim, victim_rect)
    tree.validate()
    query = Rect(0, 0, 2000, 2000)
    expected = sorted(i for i, _ in items if i != victim)
    assert sorted(tree.search_intersecting(query)) == expected


class TestBulkLoad:
    def test_empty(self):
        tree = RStarTree.bulk_load([])
        assert len(tree) == 0
        tree.validate()

    def test_single(self):
        tree = RStarTree.bulk_load([("a", Rect(0, 0, 1, 1))])
        assert len(tree) == 1
        tree.validate()
        assert tree.search_containing(Point(0.5, 0.5)) == ["a"]

    @pytest.mark.parametrize("n", [3, 16, 17, 100, 1000])
    def test_valid_and_queryable(self, n):
        items = random_items(n, seed=n)
        tree = RStarTree.bulk_load(items, max_entries=8)
        tree.validate()
        assert len(tree) == n
        query = Rect(200, 200, 700, 700)
        assert sorted(tree.search_intersecting(query)) == \
            brute_intersecting(items, query)

    def test_matches_incremental_build_results(self):
        items = random_items(500, seed=77)
        packed = RStarTree.bulk_load(items, max_entries=8)
        grown = build(items, max_entries=8)
        import random as _random
        rng = _random.Random(78)
        for _ in range(40):
            p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            assert sorted(packed.search_containing(p)) == \
                sorted(grown.search_containing(p))
            assert packed.nearest_distance(p) == \
                pytest.approx(grown.nearest_distance(p))

    def test_packed_tree_supports_updates(self):
        items = random_items(200, seed=79)
        tree = RStarTree.bulk_load(items, max_entries=8)
        extra = Rect(1, 1, 2, 2)
        tree.insert("extra", extra)
        assert tree.delete(items[0][0], items[0][1])
        tree.validate()
        assert "extra" in tree.search_intersecting(extra)

    def test_packed_tree_fewer_node_accesses(self):
        """STR clustering should not be worse than incremental growth."""
        items = random_items(2000, seed=80)
        packed = RStarTree.bulk_load(items, max_entries=8)
        grown = build(items, max_entries=8)
        packed.stats.reset()
        grown.stats.reset()
        for i in range(50):
            query = Rect(i * 15.0, i * 11.0, i * 15.0 + 120, i * 11.0 + 120)
            packed.search_intersecting(query)
            grown.search_intersecting(query)
        assert packed.stats.node_accesses <= grown.stats.node_accesses * 1.5
