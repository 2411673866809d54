"""The probe walk on every pyramid edge: the half-open cell, the oracle's bit.

``GridOverlay.cell_of`` is held to ``cell_rect`` one ulp either side of
every interior edge (``tests/index/test_grid.py``); this is the same
probe for :meth:`PyramidBitmap.walk`.  The bases are grid cells of the
TINY, BENCH and PAPER worlds at the default cell size, whose ratio-form
edges are not exactly representable, under a height-5 pyramid (the
benchmark's PBSR).  At every level, on every edge of each axis (the
base's own closed edges included) and one ulp to either side of it:

* the walk locates the cell whose half-open :meth:`Pyramid.cell_rect`
  holds the point — closed on the base's top and right edges — and
  returns exactly that cell as its safe block
  (:func:`safe_at` makes every walk stop at the level under test);
* on a bitmap built from obstacles snapped to those edges, ``(inside,
  probes)`` equals the cell-by-cell oracle's :meth:`EagerBitmap.probe`,
  and the block, safe or unsafe, holds the point it was returned for
  and every other probed point it holds walks to the same outcome —
  ``(False, height + 1)`` for an unsafe one;
* a cell swallowed whole by one alarm walks to its base as the block.

Tier-1 probes every ``examples(EDGE_STRIDE, 1)``-th edge of a level;
``REPRO_DEEP=1`` probes all of them.
"""

import functools
import math
import random

import pytest

from repro.experiments import BENCH, DEFAULT_CELL_AREA_KM2, PAPER, TINY
from repro.geometry import Point, Rect
from repro.index import CellId, GridOverlay, Pyramid, PyramidCell
from repro.saferegion import PyramidBitmap
from ..budget import examples
from .oracle import build_pyramid_bitmap, locate

HEIGHT = 5
EDGE_STRIDE = 7


@functools.lru_cache(maxsize=8)
def safe_at(pyramid, level):
    """A bitmap whose every walk stops at ``level``: each cell above it
    split, each cell of it safe.  Built once per ``(pyramid, level)``:
    the cache holds every level of one height-7 pyramid, whose deepest
    bitmap has 3**14 cells."""
    fanout = pyramid.fanout()
    levels = [b"0" * fanout ** above for above in range(level)]
    levels.append(b"1" * fanout ** level)
    levels += [b""] * (pyramid.height - level)
    return PyramidBitmap(pyramid, levels)


def walked_cell(pyramid, p, level):
    """The cell of ``p`` at ``level`` as the probe walk locates it."""
    inside, probes, block = safe_at(pyramid, level).walk(p.x, p.y)
    assert inside and probes == level + 1, (p, level)
    return PyramidCell(level, pyramid.x_edges[level].index(block[0]),
                       pyramid.y_edges[level].index(block[1]))


def half_open_block(pyramid, cell):
    """``cell`` as the positions ``min <= c < max`` that walk to it: its
    rectangle, one ulp taller or wider on the base's top or right edge."""
    rect = pyramid.cell_rect(cell)
    base = pyramid.base
    max_x, max_y = rect.max_x, rect.max_y
    if max_x == base.max_x:
        max_x = math.nextafter(max_x, math.inf)
    if max_y == base.max_y:
        max_y = math.nextafter(max_y, math.inf)
    return (rect.min_x, rect.min_y, max_x, max_y)


def bases(config):
    """The last cell of the config's default grid and one mid-grid."""
    side = config.universe_side_m
    universe = Rect(0.0, 0.0, side, side)
    grid = GridOverlay(universe, min(DEFAULT_CELL_AREA_KM2,
                                     universe.area / 1e6))
    return [grid.cell_rect(CellId(grid.columns - 1, grid.rows - 1)),
            grid.cell_rect(CellId(grid.columns // 3, grid.rows // 2))]


def edge_points(pyramid, level, stride):
    """Every ``stride``-th edge of ``level`` on each axis, the base's own
    included, and one ulp to either side, against the other axis's
    centre and closed edges."""
    base = pyramid.base
    partners_y = (base.min_y, base.center.y, base.max_y)
    partners_x = (base.min_x, base.center.x, base.max_x)
    xs = pyramid.x_edges[level]
    ys = pyramid.y_edges[level]
    picked_x = sorted({xs[k] for k in range(0, len(xs), stride)} | {xs[-1]})
    picked_y = sorted({ys[k] for k in range(0, len(ys), stride)} | {ys[-1]})
    for edge in picked_x:
        for x in (math.nextafter(edge, -math.inf), edge,
                  math.nextafter(edge, math.inf)):
            for y in partners_y:
                yield Point(x, y)
    for edge in picked_y:
        for y in (math.nextafter(edge, -math.inf), edge,
                  math.nextafter(edge, math.inf)):
            for x in partners_x:
                yield Point(x, y)


def snapped_obstacles(pyramid, rng):
    """Obstacles whose edges lie exactly on cell edges of every level,
    so the cells either side of those edges get different bits."""
    obstacles = []
    for level in range(1, pyramid.height + 1):
        cols, rows = pyramid.level_dims[level]
        xs, ys = pyramid.x_edges[level], pyramid.y_edges[level]
        for _ in range(2):
            col, row = rng.randrange(cols), rng.randrange(rows)
            obstacles.append(Rect(xs[col], ys[row],
                                  xs[min(cols, col + rng.randint(0, 2))],
                                  ys[min(rows, row + rng.randint(1, 2))]))
    return obstacles


CONFIGS = pytest.mark.parametrize("config", [TINY, BENCH, PAPER],
                                  ids=["tiny", "bench", "paper"])


@CONFIGS
def test_walk_locates_the_half_open_cell(config):
    stride = examples(EDGE_STRIDE, 1)
    for base in bases(config):
        pyramid = Pyramid(base, height=HEIGHT)
        for level in range(HEIGHT + 1):
            bitmap = safe_at(pyramid, level)
            for p in edge_points(pyramid, level, stride):
                if not base.contains_point(p):
                    assert bitmap.walk(p.x, p.y) == (False, 1, None), p
                    continue
                inside, probes, block = bitmap.walk(p.x, p.y)
                assert (inside, probes) == (True, level + 1), p
                assert block == half_open_block(
                    pyramid, locate(pyramid, p, level)), (p, level)


@CONFIGS
def test_walk_equals_the_oracle_on_every_edge(config):
    stride = examples(EDGE_STRIDE, 1)
    rng = random.Random(26)
    for base in bases(config):
        pyramid = Pyramid(base, height=HEIGHT)
        obstacles = snapped_obstacles(pyramid, rng)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        oracle, _ = build_pyramid_bitmap(pyramid, obstacles)
        walked = {p: bitmap.walk(p.x, p.y)
                  for level in range(HEIGHT + 1)
                  for p in edge_points(pyramid, level, stride)}
        blocks = {}
        for p, (inside, probes, block) in walked.items():
            assert (inside, probes) == oracle.probe(p), p
            assert bitmap.probe(p) == (inside, probes)
            if block is None:
                assert not base.contains_point(p), p
                continue
            if not inside:
                assert probes == HEIGHT + 1, p
            min_x, min_y, max_x, max_y = block
            assert min_x <= p.x < max_x and min_y <= p.y < max_y, p
            blocks[block] = (inside, probes)
        # every edge point a block holds walks to the block's outcome
        for block, outcome in blocks.items():
            min_x, min_y, max_x, max_y = block
            for p, (inside, probes, _) in walked.items():
                if min_x <= p.x < max_x and min_y <= p.y < max_y:
                    assert (inside, probes) == outcome, (p, block)
        # the premise: the edges separate cells of different bits, and
        # unsafe walks stop at more than one block
        outcomes = set(blocks.values())
        assert {False, True} <= {inside for inside, _ in outcomes}
        assert len(outcomes) >= 4
        assert sum(not inside for inside, _ in blocks.values()) >= 2


@CONFIGS
def test_a_cell_one_alarm_swallows_walks_to_its_base(config):
    """A covered root: every position of the base walks to the whole
    base as its (unsafe) block."""
    stride = examples(EDGE_STRIDE, 1)
    for base in bases(config):
        pyramid = Pyramid(base, height=HEIGHT)
        bitmap = PyramidBitmap.from_obstacles(pyramid, [Rect(
            base.min_x - 1.0, base.min_y - 1.0,
            base.max_x + 1.0, base.max_y + 1.0)])
        whole = half_open_block(pyramid, PyramidCell(0, 0, 0))
        for level in range(HEIGHT + 1):
            for p in edge_points(pyramid, level, stride):
                if base.contains_point(p):
                    assert bitmap.walk(p.x, p.y) == (
                        False, HEIGHT + 1, whole), p
                else:
                    assert bitmap.walk(p.x, p.y) == (False, 1, None), p
