"""Tests for bitmap-encoded safe regions: encode/decode, oracle parity.

Every test here exercises the one runtime :class:`PyramidBitmap`; the
``TestLazyEagerParity`` class compares it with the cell-by-cell oracle
(``oracle.py``) on ordinary geometry and ``TestProbeDifferential``
holds it — as built and as decoded from the wire — to that oracle on
points that sit bit-exactly on cell edges; the adversarial differential
suite is ``test_bitmap_oracle.py``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.saferegion import PyramidBitmap, decode_bitstring
from repro.saferegion.bitmap import COVERED

from .oracle import build_pyramid_bitmap

BASE = Rect(0, 0, 900, 900)


@st.composite
def obstacle_lists(draw, max_count=5):
    count = draw(st.integers(min_value=0, max_value=max_count))
    rects = []
    for _ in range(count):
        x = draw(st.floats(min_value=-50, max_value=880))
        y = draw(st.floats(min_value=-50, max_value=880))
        w = draw(st.floats(min_value=5, max_value=350))
        h = draw(st.floats(min_value=5, max_value=350))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


class TestEagerBitmap:
    def test_no_obstacles_single_one_bit(self):
        pyramid = Pyramid(BASE, height=2)
        bitmap = PyramidBitmap.from_obstacles(pyramid, [])
        assert bitmap.to_bitstring() == "1"
        assert bitmap.bit_length() == 1
        assert bitmap.coverage() == pytest.approx(1.0)

    def test_touching_obstacle_does_not_poison(self):
        """An alarm sharing only an edge with the cell leaves it safe."""
        pyramid = Pyramid(BASE, height=1)
        outside = Rect(900, 0, 1000, 900)  # abuts the right edge
        bitmap = PyramidBitmap.from_obstacles(pyramid, [outside])
        assert bitmap.to_bitstring() == "1"

    def test_full_cover_all_zero(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        bitmap = PyramidBitmap.from_obstacles(pyramid, [BASE.expanded(10)])
        assert bitmap.to_bitstring() == "0" + "0" * 9
        assert bitmap.coverage() == 0.0

    def test_single_corner_obstacle_level1(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        # obstacle strictly inside the bottom-left level-1 cell
        bitmap = PyramidBitmap.from_obstacles(pyramid,
                                              [Rect(10, 10, 100, 100)])
        bits = bitmap.to_bitstring()
        # root 0, then raster scan: top row all 1, middle row all 1,
        # bottom row: 0 1 1
        assert bits == "0" + "111" + "111" + "011"

    def test_probe_matches_bits(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=2)
        obstacles = [Rect(10, 10, 100, 100), Rect(500, 500, 650, 620)]
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        rng = random.Random(5)
        for _ in range(300):
            p = Point(rng.uniform(0, 900), rng.uniform(0, 900))
            inside, probes = bitmap.probe(p)
            assert 1 <= probes <= pyramid.height + 1
            if inside:
                # a safe point is never strictly inside an obstacle
                assert not any(o.interior_contains_point(p)
                               for o in obstacles)

    def test_probe_outside_base(self):
        pyramid = Pyramid(BASE, height=1)
        bitmap = PyramidBitmap.from_obstacles(pyramid, [])
        assert bitmap.probe(Point(-1, -1)) == (False, 1)

    def test_region_pieces_disjoint_and_safe(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=3)
        obstacles = [Rect(100, 100, 400, 300), Rect(300, 500, 700, 760)]
        # The runtime bitmap keeps no rectangles; its bits are the
        # oracle's, whose pieces are checked.
        oracle, _ = build_pyramid_bitmap(pyramid, obstacles)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        assert bitmap.to_bitstring() == oracle.to_bitstring()
        region = oracle.to_region()
        region.validate_disjoint()
        for piece in region.pieces:
            for obstacle in obstacles:
                assert not piece.interior_intersects(obstacle)

    def test_coverage_increases_with_height(self):
        obstacles = [Rect(100, 100, 250, 250), Rect(400, 500, 520, 640)]
        coverages = []
        for height in range(1, 5):
            pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
            bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
            coverages.append(bitmap.coverage())
        assert coverages == sorted(coverages)
        assert coverages[-1] > coverages[0]


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_roundtrip(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        encoded = bitmap.to_bitstring()
        decoded = decode_bitstring(pyramid, encoded)
        assert decoded.to_bitstring() == encoded
        assert decoded.bit_length() == bitmap.bit_length() == len(encoded)
        assert decoded.coverage() == pytest.approx(bitmap.coverage())

    def test_decode_rejects_short(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "0" + "0" * 3)

    def test_decode_rejects_long(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "1" + "111")

    def test_decode_rejects_garbage(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            decode_bitstring(pyramid, "2")


class TestLazyEagerParity:
    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_bit_length_matches(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        eager, _ = build_pyramid_bitmap(pyramid, obstacles)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        assert bitmap.bit_length() == eager.bit_length()

    @settings(max_examples=40, deadline=None)
    @given(obstacle_lists(), st.integers(min_value=1, max_value=3))
    def test_coverage_matches(self, obstacles, height):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        eager, _ = build_pyramid_bitmap(pyramid, obstacles)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        assert bitmap.coverage() == pytest.approx(eager.coverage())

    @settings(max_examples=25, deadline=None)
    @given(obstacle_lists(max_count=4), st.integers(min_value=1, max_value=3),
           st.floats(min_value=0, max_value=899),
           st.floats(min_value=0, max_value=899))
    def test_probe_matches(self, obstacles, height, x, y):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=height)
        eager, _ = build_pyramid_bitmap(pyramid, obstacles)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        p = Point(x, y)
        assert bitmap.probe(p) == eager.probe(p)

    def test_lazy_handles_deep_pyramids_fast(self):
        """Height-7 all-zero subtrees are counted, never enumerated."""
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=7)
        obstacles = [Rect(100, 100, 500, 500)]
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        # a 400x400 obstacle in a 900-cell at height 7 expands into
        # millions of zero bits; the count must reflect them while the
        # stored cells stay a small fraction
        assert bitmap.bit_length() > 100000
        stored = sum(len(cells) for cells in bitmap._levels)
        assert stored * 20 < bitmap.bit_length()
        assert any(COVERED in cells for cells in bitmap._levels)
        assert bitmap.probe(Point(300, 300)) == (False, 8)


def _obstacles(rng, count=24):
    rects = []
    for _ in range(count):
        x = rng.uniform(0.0, 850.0)
        y = rng.uniform(0.0, 850.0)
        side = rng.uniform(20.0, 120.0)
        rects.append(Rect(x, y, x + side, y + side))
    return rects


def _probe_points(rng, pyramid, count=400):
    """Random points over (and just beyond) the base, plus every edge.

    The appended points sit bit-exactly on the cell edges of every
    level and one ulp to either side, where the walk's bisection decides
    which neighbouring cell a point belongs to (half-open, the base's
    top and right edges closed).
    """
    points = [Point(rng.uniform(-10.0, 910.0), rng.uniform(-10.0, 910.0))
              for _ in range(count)]
    for xs, ys in zip(pyramid.x_edges, pyramid.y_edges):
        for x, y in zip(xs, ys):
            for dx in (-math.inf, None, math.inf):
                near_x = x if dx is None else math.nextafter(x, dx)
                points.append(Point(near_x, y))
                points.append(Point(near_x, 450.0))
                points.append(Point(450.0, near_x))
    return points


class TestProbeDifferential:
    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_packed_probe_matches_eager_bitmap(self, height):
        rng = random.Random(height)
        pyramid = Pyramid(BASE, height=height)
        obstacles = _obstacles(rng)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        eager, _ = build_pyramid_bitmap(pyramid, obstacles)
        for point in _probe_points(rng, pyramid):
            assert bitmap.probe(point) == eager.probe(point)

    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_lazy_probe_matches_lazy_bitmap(self, height):
        """What a socket client decodes probes like what the server built."""
        rng = random.Random(10 + height)
        pyramid = Pyramid(BASE, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, _obstacles(rng))
        decoded = decode_bitstring(pyramid, bitmap.to_bitstring())
        for point in _probe_points(rng, pyramid):
            assert decoded.probe(point) == bitmap.probe(point)

    def test_lazy_probe_with_no_obstacles(self):
        bitmap = PyramidBitmap.from_obstacles(Pyramid(BASE, height=2), [])
        points = [Point(1.0, 1.0), Point(-5.0, 3.0), Point(899.0, 899.0)]
        # The root bit is 1: inside answers at level 0; outside the
        # base is (False, 1).
        assert [bitmap.probe(p) for p in points] \
            == [(True, 1), (False, 1), (True, 1)]
