"""Differential suite: the runtime bitmap vs the cell-by-cell definition.

:class:`repro.saferegion.PyramidBitmap` stores level blocks, closes
all-zero subtrees in closed form and finds child blocks by rank; the
oracle (``oracle.py``) tests every emitted cell's rectangle against
every obstacle and looks cells up in a dict.  They must agree on the
serialization, its length, the coverage and every probe — above all on
the geometry where reimplementations drift: obstacles snapped
bit-exactly to cell edges of any level, zero-width and zero-area
obstacles, obstacles covering the whole base cell or lying wholly
outside it, nested and abutting pairs, and probe points on the edges
and corners of every level and one ulp to either side of them.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import Pyramid, PyramidCell
from repro.saferegion import PyramidBitmap, decode_bitstring
from repro.saferegion.bitmap import COVERED

from .oracle import build_pyramid_bitmap

#: Base cells: the round one most tests use, an offset non-square one
#: whose edges are not exactly representable, and a unit cell.
BASES = (Rect(0.0, 0.0, 900.0, 900.0),
         Rect(1234.5, -987.25, 2012.2, -653.95),
         Rect(0.0, 0.0, 1.0, 1.0))

#: The oracle enumerates every emitted cell; skip examples whose
#: obstacles would make it enumerate more than this many leaf cells.
ORACLE_LEAF_BUDGET = 30000


def _x_edge(pyramid, level, k):
    """Vertical cell edge ``k`` of ``level``, exactly as cells carry it."""
    cols, _rows = pyramid.level_dims[level]
    if k == cols:
        return pyramid.cell_rect(PyramidCell(level, k - 1, 0)).max_x
    return pyramid.cell_rect(PyramidCell(level, k, 0)).min_x


def _y_edge(pyramid, level, k):
    _cols, rows = pyramid.level_dims[level]
    if k == rows:
        return pyramid.cell_rect(PyramidCell(level, 0, k - 1)).max_y
    return pyramid.cell_rect(PyramidCell(level, 0, k)).min_y


@st.composite
def pyramids(draw):
    base = draw(st.sampled_from(BASES))
    return Pyramid(base, fan_cols=draw(st.integers(2, 3)),
                   fan_rows=draw(st.integers(2, 3)),
                   height=draw(st.integers(1, 7)))


@st.composite
def snapped_rects(draw, pyramid):
    """A rectangle with every edge exactly on a cell edge of one level.

    Equal indices give zero-width / zero-area obstacles.
    """
    level = draw(st.integers(0, pyramid.height))
    cols, rows = pyramid.level_dims[level]
    i0, i1 = sorted(draw(st.tuples(st.integers(0, cols),
                                   st.integers(0, cols))))
    j0, j1 = sorted(draw(st.tuples(st.integers(0, rows),
                                   st.integers(0, rows))))
    return Rect(_x_edge(pyramid, level, i0), _y_edge(pyramid, level, j0),
                _x_edge(pyramid, level, i1), _y_edge(pyramid, level, j1))


@st.composite
def free_rects(draw, pyramid):
    """A rectangle with arbitrary float edges in and around the base."""
    base = pyramid.base
    unit = st.floats(-0.2, 1.2)
    xs = sorted(draw(st.tuples(unit, unit)))
    ys = sorted(draw(st.tuples(unit, unit)))
    return Rect(base.min_x + base.width * xs[0],
                base.min_y + base.height * ys[0],
                base.min_x + base.width * xs[1],
                base.min_y + base.height * ys[1])


def _special_rects(pyramid):
    base = pyramid.base
    return st.sampled_from([
        base,                                        # exactly the base
        base.expanded(base.width),                   # covers it
        Rect(base.max_x, base.min_y,                 # abuts it outside
             base.max_x + base.width, base.max_y),
        Rect(base.min_x - 2 * base.width, base.min_y,  # wholly outside
             base.min_x - base.width, base.max_y),
    ])


@st.composite
def relatives(draw, rect):
    """A rectangle nested in ``rect`` or sharing an edge with it."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Rect(rect.min_x + rect.width / 4, rect.min_y + rect.height / 4,
                    rect.max_x - rect.width / 4, rect.max_y - rect.height / 4)
    if kind == 1:
        return Rect(rect.max_x, rect.min_y,
                    rect.max_x + rect.width / 2, rect.max_y)
    return Rect(rect.min_x, rect.min_y - rect.height / 2,
                rect.max_x, rect.min_y)


@st.composite
def obstacle_lists(draw, pyramid):
    rects = draw(st.lists(
        st.one_of(snapped_rects(pyramid), snapped_rects(pyramid),
                  free_rects(pyramid), _special_rects(pyramid)),
        max_size=4))
    for rect in list(rects):
        if draw(st.booleans()):
            rects.append(draw(relatives(rect)))
    return rects


def _oracle_leaf_cells(pyramid, obstacles):
    """Upper bound on the leaf cells the obstacles force the oracle into."""
    cols, rows = pyramid.level_dims[pyramid.height]
    base = pyramid.base
    return sum(base.intersection_area(obstacle) / base.area * cols * rows
               + 2 * (cols + rows)
               for obstacle in obstacles
               if obstacle.interior_intersects(base))


def edge_points(pyramid):
    """Points on cell corners of every level, and one ulp around them."""
    base = pyramid.base
    points = [Point(base.min_x - 1.0, base.min_y), base.center]
    for level, (cols, rows) in enumerate(pyramid.level_dims):
        xs = {_x_edge(pyramid, level, k)
              for k in (0, 1, cols // 2, cols - 1, cols)}
        ys = {_y_edge(pyramid, level, k)
              for k in (0, 1, rows // 2, rows - 1, rows)}
        for x in sorted(xs):
            for y in sorted(ys):
                points.append(Point(x, y))
                points.append(Point(math.nextafter(x, math.inf), y))
                points.append(Point(math.nextafter(x, -math.inf),
                                    math.nextafter(y, -math.inf)))
    return points


def assert_matches_oracle(pyramid, obstacles, points):
    bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
    oracle, _ = build_pyramid_bitmap(pyramid, obstacles)
    bits = oracle.to_bitstring()
    assert bitmap.to_bitstring() == bits
    assert bitmap.bit_length() == oracle.bit_length() == len(bits)
    assert math.isclose(bitmap.coverage(), oracle.coverage(),
                        rel_tol=1e-12, abs_tol=0.0)
    decoded = decode_bitstring(pyramid, bits)
    assert decoded.to_bitstring() == bits
    assert decoded.bit_length() == len(bits)
    assert math.isclose(decoded.coverage(), oracle.coverage(),
                        rel_tol=1e-9, abs_tol=1e-15)
    for point in points:
        expected = oracle.probe(point)
        assert bitmap.probe(point) == expected, point
        assert decoded.probe(point) == expected, point
    return bitmap


@st.composite
def worlds(draw):
    pyramid = draw(pyramids())
    obstacles = draw(obstacle_lists(pyramid))
    assume(_oracle_leaf_cells(pyramid, obstacles) <= ORACLE_LEAF_BUDGET)
    unit = st.floats(0.0, 1.0)
    base = pyramid.base
    points = [Point(base.min_x + base.width * x, base.min_y + base.height * y)
              for x, y in draw(st.lists(st.tuples(unit, unit), max_size=8))]
    return pyramid, obstacles, points


class TestAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(worlds())
    def test_adversarial_geometry(self, world):
        pyramid, obstacles, points = world
        assert_matches_oracle(pyramid, obstacles,
                              edge_points(pyramid) + points)

    @pytest.mark.parametrize("fan_cols,fan_rows,height",
                             [(2, 2, 7), (3, 2, 5), (3, 3, 4)])
    def test_whole_base_covered(self, fan_cols, fan_rows, height):
        """One covering alarm: the closed form equals full enumeration."""
        for base in BASES:
            pyramid = Pyramid(base, fan_cols, fan_rows, height)
            bitmap = assert_matches_oracle(
                pyramid, [base.expanded(1.0)], edge_points(pyramid))
            assert bitmap._levels[0] == bytes([COVERED])
            assert bitmap.coverage() == 0.0

    def test_covered_subtrees_at_several_levels(self):
        """Covered cells of different levels interleave in the wire order."""
        pyramid = Pyramid(BASES[0], 3, 3, 4)
        obstacles = [Rect(0, 600, 300, 900),      # one level-1 cell
                     Rect(400, 400, 500, 500),    # one level-2 cell
                     Rect(600, 0, 900, 250),      # not cell-aligned
                     Rect(333, 0, 334, 900)]      # a sliver through it all
        bitmap = assert_matches_oracle(pyramid, obstacles,
                                       edge_points(pyramid))
        assert sum(COVERED in cells for cells in bitmap._levels) >= 2


class TestShrunkFailures:
    """Counterexamples this suite found, kept as fixtures."""

    def test_alarm_abutting_the_base_does_not_reach_the_last_column(self):
        """777.7 * 3 / 3 != 777.7: with per-level ratio edges the last
        level-1 column overhung the base by an ulp, so an alarm starting
        exactly on the base's right edge zeroed it in the flat oracle
        but not in a builder that prunes by parent.  Cell edges are now
        canonical across levels (``Pyramid.cell_rect``)."""
        pyramid = Pyramid(BASES[1], fan_cols=3, fan_rows=2, height=1)
        base = pyramid.base
        obstacles = [Rect(base.min_x, base.min_y, base.min_x, base.min_y),
                     Rect(base.min_x, base.min_y,
                          _x_edge(pyramid, 1, 1), _y_edge(pyramid, 1, 1)),
                     Rect(base.max_x, base.min_y,
                          base.max_x + base.width, base.max_y)]
        bitmap = assert_matches_oracle(pyramid, obstacles,
                                       edge_points(pyramid))
        assert bitmap.to_bitstring() == "0111011"
        for level, (cols, rows) in enumerate(pyramid.level_dims):
            assert _x_edge(pyramid, level, cols) == base.max_x
            assert _y_edge(pyramid, level, rows) == base.max_y


class TestFloatInconsistentLocates:
    """Within an ulp of an edge, ``locate`` at level L + 1 need not land
    in a child of the cell it found at level L; the probe must then give
    what the oracle's independent per-level lookup gives."""

    HEIGHT = 7

    def _inconsistent_units(self):
        """Unit coordinates whose fan-3 cell chain is not a chain."""
        found = []
        for level in range(1, self.HEIGHT):
            cols = 3 ** level
            for k in range(1, cols):
                centre = k / cols
                for unit in (math.nextafter(centre, 0.0), centre,
                             math.nextafter(centre, 1.0)):
                    chain = [int(unit * 3 ** depth)
                             for depth in range(self.HEIGHT + 1)]
                    if any(chain[depth] // 3 != chain[depth - 1]
                           for depth in range(1, self.HEIGHT + 1)):
                        found.append((unit, level, k))
        return found

    def test_probe_equals_the_oracle_where_the_chain_breaks(self):
        units = self._inconsistent_units()
        assert len(units) >= 20  # the premise: such coordinates exist
        pyramid = Pyramid(BASES[2], 3, 3, self.HEIGHT)
        checked = 0
        for unit, level, k in units[::7]:
            cols = 3 ** level
            edge = k / cols
            # One alarm ending on the edge, one starting a cell later:
            # the cells either side of the edge get different bits.
            obstacles = [Rect(edge - 2 / cols, 0.4, edge, 0.6),
                         Rect(edge + 1 / cols, 0.45, edge + 2 / cols, 0.55),
                         Rect(edge, 0.0, edge + 1 / cols, 0.1)]
            points = [Point(unit, y) for y in (0.05, 0.5, unit, 0.95)]
            points += [Point(y, unit) for y in (0.05, 0.5, 0.95)]
            assert_matches_oracle(pyramid, obstacles, points)
            checked += 1
        assert checked >= 3
