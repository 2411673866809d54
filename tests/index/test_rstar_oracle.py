"""The dynamic insert path builds the same tree it always built.

``RStarTree._least_overlap_child`` was rewritten on plain floats with an
early exit; the implementation it replaced lives on here as the oracle.
Two trees fed the same insert/delete sequence — one choosing subtrees
with the shipped code, one with the oracle — must come out identical
node for node, entry for entry, with equal split/reinsert/access
counters.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import RStarTree
from ..budget import examples


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


class ReferenceTree(RStarTree):
    _least_overlap_child = staticmethod(reference_least_overlap_child)


def shape(tree):
    """The whole tree as nested tuples: entry order and bounds included."""
    def walk(node):
        return (node.leaf, tuple(
            ((entry.rect.min_x, entry.rect.min_y,
              entry.rect.max_x, entry.rect.max_y),
             entry.item if node.leaf else walk(entry.child))
            for entry in node.entries))
    return (tree.height, len(tree), walk(tree._root))


def replay(operations, max_entries):
    """Apply ``("insert", rect)`` / ``("delete", k)`` to both trees."""
    trees = (RStarTree(max_entries=max_entries),
             ReferenceTree(max_entries=max_entries))
    live = []
    for serial, (kind, arg) in enumerate(operations):
        if kind == "insert":
            live.append((serial, arg))
            for tree in trees:
                tree.insert(serial, arg)
        elif live:
            item, rect = live.pop(arg % len(live))
            for tree in trees:
                assert tree.delete(item, rect)
        assert shape(trees[0]) == shape(trees[1])
    shipped, reference = trees
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
        tree = replay(operations, max_entries)
        assert tree.height >= 3


def test_alarm_sized_squares_build_the_identical_tree():
    """The benchmark's population shape: many small squares, few ties."""
    rng = random.Random(23)
    operations = []
    for _ in range(examples(600, 3000)):
        x, y = rng.uniform(0, 10000), rng.uniform(0, 10000)
        side = rng.uniform(50, 250)
        operations.append(("insert", Rect(x, y, x + side, y + side)))
    replay(operations, 16)


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
