"""Unit and property tests for repro.geometry.rect."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False,
                   allow_infinity=False)


@st.composite
def rects(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    x2 = draw(coords)
    y2 = draw(coords)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


class TestConstruction:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_from_corners_any_order(self):
        expected = Rect(0, 0, 2, 3)
        assert Rect.from_corners(Point(2, 0), Point(0, 3)) == expected
        assert Rect.from_corners(Point(0, 3), Point(2, 0)) == expected

    def test_from_center(self):
        r = Rect.from_center(Point(5, 5), 4, 2)
        assert r == Rect(3, 4, 7, 6)

    def test_from_center_negative_raises(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0, 0), -1, 1)

    def test_bounding(self):
        r = Rect.bounding([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_point_rect_is_degenerate(self):
        r = Rect.point_rect(Point(1, 2))
        assert r.is_degenerate()
        assert r.area == 0.0


class TestMeasures:
    def test_basic(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4
        assert r.height == 3
        assert r.area == 12
        assert r.perimeter == 14
        assert r.margin == 7
        assert r.center == Point(2, 1.5)

    def test_corners_ccw(self):
        bl, br, tr, tl = Rect(0, 0, 2, 1).corners()
        assert (bl, br, tr, tl) == (Point(0, 0), Point(2, 0),
                                    Point(2, 1), Point(0, 1))


class TestPredicates:
    def test_contains_point_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0.5))
        assert not r.interior_contains_point(Point(0, 0.5))
        assert r.interior_contains_point(Point(0.5, 0.5))

    def test_corners_of_the_rect_itself(self):
        rect = Rect(10.0, 20.0, 30.0, 40.0)
        for corner in rect.corners():
            assert rect.contains_point(corner)
            assert not rect.interior_contains_point(corner)

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(5, 5, 11, 9))

    def test_touching_edges(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 0, 2, 1)
        assert a.intersects(b)
        assert not a.interior_intersects(b)

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        assert a.interior_intersects(b) == b.interior_intersects(a)

    @given(rects())
    def test_self_intersection(self, r):
        assert r.intersects(r)
        # compare against side lengths, not area, which can underflow to 0
        assert r.interior_intersects(r) == (r.width > 0 and r.height > 0)


class TestCombination:
    def test_intersection(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.intersection(b) == Rect(1, 1, 2, 2)

    def test_intersection_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    @given(rects(), rects())
    def test_intersection_area_consistent(self, a, b):
        overlap = a.intersection(b)
        if overlap is None:
            assert a.intersection_area(b) == 0.0
        else:
            assert a.intersection_area(b) == pytest.approx(overlap.area)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a)
        assert union.contains_rect(b)

    @given(rects(), rects())
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= -1e-6

    @given(rects())
    def test_enlargement_self_zero(self, r):
        assert r.enlargement(r) == pytest.approx(0.0, abs=1e-9)

    def test_expanded(self):
        assert Rect(0, 0, 2, 2).expanded(1) == Rect(-1, -1, 3, 3)

    def test_expanded_collapse_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2).expanded(-2)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(5, -1) == Rect(5, -1, 6, 0)


class TestDistances:
    def test_distance_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(1, 1)) == 0.0

    def test_distance_axis_aligned(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(5, 1)) == 3.0

    def test_distance_diagonal(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(5, 6)) == 5.0

    def test_rect_to_rect_distance(self):
        a = Rect(0, 0, 1, 1)
        assert a.distance_to_rect(Rect(4, 5, 6, 7)) == 5.0
        assert a.distance_to_rect(Rect(0.5, 0.5, 2, 2)) == 0.0

    def test_boundary_distance(self):
        r = Rect(0, 0, 10, 10)
        assert r.boundary_distance(Point(3, 5)) == 3.0
        assert r.boundary_distance(Point(0, 5)) == 0.0
        assert r.boundary_distance(Point(-1, 5)) == 0.0

    @given(rects(), points())
    def test_distance_zero_iff_contained(self, r, p):
        if r.contains_point(p):
            assert r.distance_to_point(p) == 0.0
        else:
            assert r.distance_to_point(p) > 0.0


class TestSubtract:
    def test_disjoint_returns_self(self):
        r = Rect(0, 0, 1, 1)
        assert r.subtract(Rect(5, 5, 6, 6)) == [r]

    def test_hole_in_middle_gives_four(self):
        outer = Rect(0, 0, 10, 10)
        pieces = outer.subtract(Rect(4, 4, 6, 6))
        assert len(pieces) == 4
        assert sum(p.area for p in pieces) == pytest.approx(100 - 4)

    def test_full_cover_gives_empty(self):
        assert Rect(2, 2, 3, 3).subtract(Rect(0, 0, 10, 10)) == []

    @given(rects(), rects())
    def test_pieces_disjoint_from_hole_and_cover_rest(self, outer, hole):
        pieces = outer.subtract(hole)
        total = sum(p.area for p in pieces)
        expected = outer.area - outer.intersection_area(hole)
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-6)
        for piece in pieces:
            assert not piece.interior_intersects(hole)
            assert outer.contains_rect(piece)


class TestGridSplit:
    def test_counts(self):
        cells = list(Rect(0, 0, 3, 3).grid_split(3, 3))
        assert len(cells) == 9

    def test_raster_scan_order_top_row_first(self):
        cells = list(Rect(0, 0, 2, 2).grid_split(2, 2))
        # first cell is top-left, second top-right, then bottom row
        assert cells[0] == Rect(0, 1, 1, 2)
        assert cells[1] == Rect(1, 1, 2, 2)
        assert cells[2] == Rect(0, 0, 1, 1)
        assert cells[3] == Rect(1, 0, 2, 1)

    def test_cover_exactly(self):
        outer = Rect(0, 0, 7, 5)
        cells = list(outer.grid_split(7, 5))
        assert sum(c.area for c in cells) == pytest.approx(outer.area)

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            list(Rect(0, 0, 1, 1).grid_split(0, 2))
