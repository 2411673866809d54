"""Property-based invariants tying the rectangle predicates together.

``tests/geometry/test_rect.py`` checks each predicate in isolation; this
module pins the *relations between* predicates that the safe-region
layer silently leans on — above all that containment and intersection
can never disagree (a rectangle that contains a point intersects every
rectangle holding that point, an interior hit implies a closed hit, and
``intersection``/``intersection_area``/``union`` tell one consistent
story).  The differential engine suite catches a broken relation only
after it corrupts a full simulation; these properties catch it at the
geometry layer with a minimal counterexample.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False,
                   allow_infinity=False)


@st.composite
def rects(draw):
    x1, y1 = draw(coords), draw(coords)
    x2, y2 = draw(coords), draw(coords)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


@st.composite
def rect_with_inner_point(draw):
    """A rectangle plus a point guaranteed inside it (closed sense)."""
    rect = draw(rects())
    fx = draw(st.floats(min_value=0.0, max_value=1.0))
    fy = draw(st.floats(min_value=0.0, max_value=1.0))
    return rect, Point(rect.min_x + fx * rect.width,
                       rect.min_y + fy * rect.height)


class TestContainmentIntersectionConsistency:
    @given(rects(), rects(), points())
    def test_shared_point_implies_intersection(self, a, b, p):
        """Two rectangles both containing a point must intersect."""
        if a.contains_point(p) and b.contains_point(p):
            assert a.intersects(b)
            assert a.intersection(b) is not None

    @given(rects(), rect_with_inner_point())
    def test_point_in_intersection_is_in_both(self, a, bp):
        b, p = bp
        hole = a.intersection(b)
        if hole is not None and hole.contains_point(p):
            assert a.contains_point(p)
            assert b.contains_point(p)

    @given(rects(), points())
    def test_interior_implies_closed(self, r, p):
        if r.interior_contains_point(p):
            assert r.contains_point(p)

    @given(rects(), rects())
    def test_interior_intersection_implies_closed_intersection(self, a, b):
        if a.interior_intersects(b):
            assert a.intersects(b)

    @given(rects(), rects())
    def test_contains_rect_means_intersection_is_other(self, a, b):
        if a.contains_rect(b):
            assert a.intersects(b)
            assert a.intersection(b) == b

    @given(rects(), rects())
    def test_intersection_consistent_with_predicate(self, a, b):
        assert (a.intersection(b) is not None) == a.intersects(b)

    @given(rects(), rects())
    def test_intersection_area_matches_intersection(self, a, b):
        """``intersection_area`` is exactly the area of ``intersection``.

        A positive area also implies interior overlap.  (The converse
        only holds for rectangles of positive extent: a degenerate
        rectangle passes the strict-inequality ``interior_intersects``
        test yet has nothing to overlap with, and subnormal overlaps can
        underflow the area product to zero.)
        """
        hole = a.intersection(b)
        area = a.intersection_area(b)
        assert area == (hole.area if hole is not None else 0.0)
        if area > 0.0:
            assert a.interior_intersects(b)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        hole = a.intersection(b)
        if hole is not None:
            assert a.contains_rect(hole)
            assert b.contains_rect(hole)

    @given(rects(), points())
    def test_distance_zero_on_containment(self, r, p):
        if r.contains_point(p):
            assert r.distance_to_point(p) == 0.0

    @given(rect_with_inner_point())
    def test_boundary_distance_within_half_extent(self, rp):
        r, p = rp
        slack = r.boundary_distance(p)
        assert slack >= 0.0
        assert slack <= min(r.width, r.height) / 2.0 + 1e-9


class TestCombinationConsistency:
    @given(rects(), rects())
    def test_union_contains_intersection(self, a, b):
        hole = a.intersection(b)
        if hole is not None:
            assert a.union(b).contains_rect(hole)

    @given(rects(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_grid_split_tiles_exactly(self, r, columns, rows):
        cells = list(r.grid_split(columns, rows))
        assert len(cells) == columns * rows
        for cell in cells:
            assert r.contains_rect(cell)
        assert sum(cell.area for cell in cells) == pytest.approx(
            r.area, rel=1e-9, abs=1e-6)
