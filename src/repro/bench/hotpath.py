"""``repro bench-hotpath``: the alarm index grown by inserts vs STR-packed.

Sets the two ways of building the alarm index side by side at
10^3/10^4/10^5 alarms of the paper's density: grown by R* inserts, or
packed by :meth:`RStarTree.bulk_load` (what the registry does with a
population known up front).  It reports what the
packed tree buys (build seconds) *and* what it costs (nodes read per
query: STR fills every leaf, forced reinsertion leaves ~30% slack), for
point and cell-sized range queries, plus the price of a later dynamic
insert into each tree.

Timings use ``time.perf_counter`` deltas only (RL006's sanctioned
duration form); this module never prints (RL007) — the CLI renders the
rows as JSON, manifest-embedded like ``repro bench-net``.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, List, Tuple

from ..geometry import Point, Rect
from ..index import RStarTree


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall time of ``repeats`` calls (noise-resistant minimum)."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


#: Populations benched (those no larger than ``points``).
INDEX_BUILD_SIZES = (1_000, 10_000, 100_000)
ALARMS_PER_KM2 = 10.0           # the paper's 10,000 alarms on ~1,000 km^2
CELL_SIDE_M = 1581.0            # a 2.5 km^2 grid cell


def _grow(items: List[Tuple[int, Rect]]) -> RStarTree:
    tree = RStarTree()
    for item, rect in items:
        tree.insert(item, rect)
    return tree


def _squares(rng: random.Random, count: int, side_m: float,
             first_id: int = 0) -> List[Tuple[int, Rect]]:
    """``count`` alarm-sized squares (50-250 m) uniform over the universe."""
    items = []
    for item in range(first_id, first_id + count):
        x, y = rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)
        side = rng.uniform(50.0, 250.0)
        items.append((item, Rect(x, y, x + side, y + side)))
    return items


def _leaf_fill(tree: RStarTree) -> float:
    """Mean entries per leaf (``max_entries`` is 16)."""
    leaves = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node.leaf:
            leaves += 1
        else:
            stack.extend(entry.child for entry in node.entries
                         if entry.child is not None)
    return round(len(tree) / leaves, 2)


def _bench_index_build(rng: random.Random, alarms: int, queries: int,
                       repeats: int) -> Dict[str, object]:
    """Both builds of one population, their query cost, a later insert."""
    side_m = math.sqrt(alarms / ALARMS_PER_KM2) * 1000.0
    items = _squares(rng, alarms, side_m)
    later = _squares(rng, max(1, queries // 10), side_m, first_id=alarms)
    points = [Point(rng.uniform(0.0, side_m), rng.uniform(0.0, side_m))
              for _ in range(queries)]
    cells = [Rect(p.x, p.y, p.x + CELL_SIDE_M, p.y + CELL_SIDE_M)
             for p in points]
    row: Dict[str, object] = {"alarms": alarms, "queries": queries,
                              "later_inserts": len(later)}
    answers = []
    for name, build in (("inserted", _grow), ("packed", RStarTree.bulk_load)):
        started = time.perf_counter()
        tree = build(items)
        measures = {"build_s": time.perf_counter() - started}
        shape = {"height": tree.height, "leaf_fill": _leaf_fill(tree)}
        answers.append(
            [sorted(tree.search_containing(p, interior=True))
             for p in points]
            + [sorted(tree.search_interior_intersecting(cell))
               for cell in cells])
        for kind, run in (
                ("point", lambda: [tree.search_containing(p, interior=True)
                                   for p in points]),
                ("range", lambda: [tree.search_interior_intersecting(cell)
                                   for cell in cells])):
            tree.stats.reset()
            elapsed = _best_of(run, repeats)
            measures[kind + "_us_per_query"] = elapsed * 1e6 / queries
            measures[kind + "_nodes_per_query"] = (
                tree.stats.node_accesses / (queries * repeats))
        started = time.perf_counter()
        for item, rect in later:
            tree.insert(item, rect)
        measures["later_insert_us"] = ((time.perf_counter() - started)
                                       * 1e6 / len(later))
        tree.validate()
        row[name] = dict({key: round(value, 4)
                          for key, value in measures.items()}, **shape)
    if answers[0] != answers[1]:
        raise AssertionError("packed and inserted trees answer differently")
    return row


def run_hotpath_bench(points: int = 100_000, repeats: int = 3,
                      seed: int = 11) -> List[Dict[str, object]]:
    """One ``index_build`` row per population size up to ``points``.

    Every population of :data:`INDEX_BUILD_SIZES` no larger than
    ``points`` is built both ways and asked ``points // 10`` queries of
    each kind; ``repeats`` runs each timed query section that many
    times and keeps the best (minimum) wall time; ``seed`` feeds the
    private RNG that lays out the geometry, so two runs on the same
    machine bench identical inputs.
    """
    if points < 1:
        raise ValueError("points must be positive")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rng = random.Random(seed)
    return [_bench_index_build(rng, alarms, max(1, points // 10), repeats)
            for alarms in INDEX_BUILD_SIZES if alarms <= points]
