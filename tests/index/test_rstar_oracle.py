"""The dynamic insert path builds the same tree, and points find the same
items, as they always did.

Three shipped routines were rewritten; the implementations they replaced
live on here as the oracle:

* ``_least_overlap_child`` (plain floats, early exit);
* ``_adjust_upward`` (stops at the first unchanged ancestor rectangle
  instead of refreshing every rectangle up to the root);
* ``search_containing`` (descends internal nodes by x-slab table instead
  of scanning their entries).

Two trees fed the same insert/delete sequence — one shipped, one built
and queried by the oracle — must come out identical node for node,
entry for entry, with equal split/reinsert/access counters.  After every
operation both are asked for the items containing the edges and corners
of entries and random points, closed and interior: the same items, as
multisets, for the same node accesses; then the shipped tree validates,
cached slab tables included.  The two long seeded replays probe every
``examples(16, 1)``-th operation and the last one; ``REPRO_SANITIZE=1``
probes every operation (``tests/budget.py``).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import RStarTree
from ..budget import examples

#: Entries whose edges and corners are probed after an operation, beside
#: the one it inserted or deleted, and random points probed with them.
PROBED_ENTRIES = examples(2, 8)
RANDOM_POINTS = examples(2, 8)
#: The long seeded replays probe every this-many-th operation.
LONG_REPLAY_STRIDE = examples(16, 1)


def reference_least_overlap_child(node, rect):
    """The pre-PR-15 ChooseSubtree, on ``Rect`` objects, no early exit."""
    best = None
    best_key = (math.inf, math.inf, math.inf)
    for entry in node.entries:
        enlarged = entry.rect.union(rect)
        overlap_before = 0.0
        overlap_after = 0.0
        for other in node.entries:
            if other is entry:
                continue
            overlap_before += entry.rect.intersection_area(other.rect)
            overlap_after += enlarged.intersection_area(other.rect)
        key = (overlap_after - overlap_before,
               entry.rect.enlargement(rect),
               entry.rect.area)
        if key < best_key:
            best_key = key
            best = entry
    assert best is not None
    return best


def reference_adjust_upward(self, node):
    """The former AdjustTree: every rectangle refreshed to the root."""
    current = node
    while current.parent is not None:
        parent = current.parent
        for entry in parent.entries:
            if entry.child is current:
                entry.rect = current.mbr()
                break
        current = parent


def reference_search_containing(self, point, interior=False):
    """The former point query: every node's entries scanned."""
    px, py = point.x, point.y
    results = []
    stack = [self._root]
    accesses = 0
    while stack:
        node = stack.pop()
        accesses += 1
        leaf = node.leaf
        for entry in node.entries:
            box = entry.rect
            if (box.min_x <= px <= box.max_x
                    and box.min_y <= py <= box.max_y):
                if not leaf:
                    stack.append(entry.child)
                elif (not interior
                      or (box.min_x < px < box.max_x
                          and box.min_y < py < box.max_y)):
                    results.append(entry.item)
    self.stats.node_accesses += accesses
    return results


class ReferenceTree(RStarTree):
    _least_overlap_child = staticmethod(reference_least_overlap_child)
    _adjust_upward = reference_adjust_upward
    search_containing = reference_search_containing


def shape(tree):
    """The whole tree as nested tuples: entry order and bounds included."""
    def walk(node):
        return (node.leaf, tuple(
            ((entry.rect.min_x, entry.rect.min_y,
              entry.rect.max_x, entry.rect.max_y),
             entry.item if node.leaf else walk(entry.child))
            for entry in node.entries))
    return (tree.height, len(tree), walk(tree._root))


def all_rects(tree):
    """Every entry rectangle of the tree, internal levels included."""
    rects = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        for entry in node.entries:
            rects.append(entry.rect)
            if not node.leaf:
                stack.append(entry.child)
    return rects


def probe_points(tree, touched, rng):
    """Edges and corners of ``touched`` and of sampled entries, plus
    random points over (and just beyond) the tree's bounds."""
    rects = all_rects(tree)
    if len(rects) > PROBED_ENTRIES:
        rects = rng.sample(rects, PROBED_ENTRIES)
    if touched is not None:
        rects.append(touched)
    points = []
    for r in rects:
        cx, cy = (r.min_x + r.max_x) / 2, (r.min_y + r.max_y) / 2
        for x in (r.min_x, cx, r.max_x):
            for y in (r.min_y, cy, r.max_y):
                points.append(Point(x, y))
    if tree._root.entries:
        bounds = tree._root.mbr()
        pad_x = bounds.width / 8 + 1.0
        pad_y = bounds.height / 8 + 1.0
        for _ in range(RANDOM_POINTS):
            points.append(Point(
                rng.uniform(bounds.min_x - pad_x, bounds.max_x + pad_x),
                rng.uniform(bounds.min_y - pad_y, bounds.max_y + pad_y)))
    return points


def assert_same_point_queries(shipped, reference, points):
    for p in points:
        for interior in (False, True):
            before = (shipped.stats.node_accesses,
                      reference.stats.node_accesses)
            found = shipped.search_containing(p, interior=interior)
            expected = reference.search_containing(p, interior=interior)
            assert sorted(found) == sorted(expected), (p, interior)
            assert (shipped.stats.node_accesses - before[0]
                    == reference.stats.node_accesses - before[1]), p


def replay(operations, max_entries, stride=1):
    """Apply ``("insert", rect)`` / ``("delete", k)`` to both trees;
    probe point queries and validate after every ``stride``-th
    operation and the last."""
    trees = (RStarTree(max_entries=max_entries),
             ReferenceTree(max_entries=max_entries))
    shipped, reference = trees
    rng = random.Random(len(operations) * 31 + max_entries)
    live = []
    for serial, (kind, arg) in enumerate(operations):
        touched = None
        if kind == "insert":
            live.append((serial, arg))
            touched = arg
            for tree in trees:
                tree.insert(serial, arg)
        elif live:
            item, touched = live.pop(arg % len(live))
            for tree in trees:
                assert tree.delete(item, touched)
        assert shape(shipped) == shape(reference)
        if serial % stride == 0 or serial == len(operations) - 1:
            shipped.validate()
            assert_same_point_queries(shipped, reference,
                                      probe_points(shipped, touched, rng))
    shipped.validate()
    assert shipped.stats == reference.stats
    return shipped


def test_random_inserts_and_deletes_build_the_identical_tree():
    for seed, max_entries in ((1, 4), (2, 8), (3, 16)):
        rng = random.Random(seed)
        operations = []
        for _ in range(1500):
            if rng.random() < 0.25:
                operations.append(("delete", rng.randrange(10 ** 6)))
                continue
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            operations.append(("insert", Rect(x, y, x + rng.uniform(0, 60),
                                               y + rng.uniform(0, 60))))
        tree = replay(operations, max_entries, LONG_REPLAY_STRIDE)
        assert tree.height >= 3


def test_alarm_sized_squares_build_the_identical_tree():
    """The benchmark's population shape: many small squares, few ties."""
    rng = random.Random(23)
    operations = []
    for _ in range(examples(600, 3000)):
        x, y = rng.uniform(0, 10000), rng.uniform(0, 10000)
        side = rng.uniform(50, 250)
        operations.append(("insert", Rect(x, y, x + side, y + side)))
    replay(operations, 16, LONG_REPLAY_STRIDE)


# A coarse lattice makes equal keys, containment, abutting edges,
# duplicates and zero-width/zero-area rectangles the common case.
lattice = st.integers(min_value=0, max_value=12).map(float)
extent = st.integers(min_value=0, max_value=4).map(float)


@st.composite
def lattice_rects(draw):
    x, y = draw(lattice), draw(lattice)
    return Rect(x, y, x + draw(extent), y + draw(extent))


operation = st.one_of(
    st.tuples(st.just("insert"), lattice_rects()),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=999)))


@settings(max_examples=60, deadline=None)
@given(st.lists(operation, max_size=120), st.sampled_from([4, 5, 8]))
def test_property_identical_tree_on_degenerate_lattice(operations,
                                                       max_entries):
    replay(operations, max_entries)


wide = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                 allow_infinity=False)
span = st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
                 allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(wide, wide, span, span), min_size=1,
                max_size=150))
def test_property_identical_tree_on_arbitrary_floats(boxes):
    replay([("insert", Rect(x, y, x + w, y + h)) for x, y, w, h in boxes],
           max_entries=4)


def test_validate_rejects_a_stale_slab_table():
    """A missed invalidation fails ``validate``, not only the query that
    happens to read the stale slab."""
    tree = RStarTree(max_entries=4)
    for serial in range(40):
        x = float(serial % 7 * 10)
        y = float(serial // 7 * 10)
        tree.insert(serial, Rect(x, y, x + 12.0, y + 12.0))
    tree.search_containing(Point(31.0, 23.0))
    tree.validate()
    assert tree._root.slabs is not None
    edges, slabs = tree._root.slabs
    tree._root.slabs = (edges, [()] * len(slabs))
    with pytest.raises(AssertionError, match="stale slab table"):
        tree.validate()
