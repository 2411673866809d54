"""Tests for rectilinear regions (unions of disjoint rectangles)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (Point, Rect, RectilinearRegion,
                            region_from_rect_minus_holes)

coords = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def holes(draw, container):
    x1 = draw(st.floats(min_value=container.min_x, max_value=container.max_x))
    x2 = draw(st.floats(min_value=container.min_x, max_value=container.max_x))
    y1 = draw(st.floats(min_value=container.min_y, max_value=container.max_y))
    y2 = draw(st.floats(min_value=container.min_y, max_value=container.max_y))
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestRegionBasics:
    def test_empty(self):
        region = RectilinearRegion([])
        assert region.is_empty()
        assert region.area == 0.0
        assert region.bounds is None
        assert not region.contains_point(Point(0, 0))

    def test_single_rect(self):
        region = RectilinearRegion([Rect(0, 0, 2, 2)])
        assert region.area == 4.0
        assert region.contains_point(Point(1, 1))
        assert region.contains_point(Point(0, 0))  # closed
        assert not region.contains_point(Point(3, 3))

    def test_two_pieces(self):
        region = RectilinearRegion([Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)])
        assert region.area == 2.0
        assert region.contains_point(Point(0.5, 0.5))
        assert region.contains_point(Point(2.5, 0.5))
        assert not region.contains_point(Point(1.5, 0.5))

    def test_len(self):
        assert len(RectilinearRegion([Rect(0, 0, 1, 1)])) == 1

    def test_validate_disjoint_passes(self):
        RectilinearRegion([Rect(0, 0, 1, 1),
                           Rect(1, 0, 2, 1)]).validate_disjoint()

    def test_validate_disjoint_catches_overlap(self):
        region = RectilinearRegion([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)])
        with pytest.raises(ValueError):
            region.validate_disjoint()

    def test_interior_intersects_rect(self):
        region = RectilinearRegion([Rect(0, 0, 1, 1)])
        assert region.interior_intersects_rect(Rect(0.5, 0.5, 2, 2))
        assert not region.interior_intersects_rect(Rect(1, 0, 2, 1))

    def test_coverage(self):
        container = Rect(0, 0, 10, 10)
        region = RectilinearRegion([Rect(0, 0, 5, 10)])
        assert region.coverage_of(container) == pytest.approx(0.5)

    def test_coverage_clips_to_container(self):
        container = Rect(0, 0, 10, 10)
        region = RectilinearRegion([Rect(5, 0, 20, 10)])
        assert region.coverage_of(container) == pytest.approx(0.5)

    def test_attribute_writes_raise(self):
        """Frozen like Point and Rect: shared regions cannot be edited."""
        region = RectilinearRegion([Rect(0, 0, 1, 1)])
        with pytest.raises(FrozenInstanceError):
            region._pieces = []
        with pytest.raises(FrozenInstanceError):
            del region._bounds
        assert region.area == 1.0

    def test_pickles_and_copies(self):
        region = RectilinearRegion([Rect(2, 0, 3, 1), Rect(0, 0, 1, 1)])
        for clone in (pickle.loads(pickle.dumps(region)),
                      copy.deepcopy(region)):
            assert clone.pieces == region.pieces
            assert clone.bounds == region.bounds


class TestRectMinusHoles:
    def test_no_holes(self):
        container = Rect(0, 0, 10, 10)
        region = region_from_rect_minus_holes(container, [])
        assert region.area == pytest.approx(100.0)

    def test_full_cover(self):
        container = Rect(0, 0, 10, 10)
        region = region_from_rect_minus_holes(container,
                                              [Rect(-1, -1, 11, 11)])
        assert region.is_empty()

    def test_one_hole(self):
        container = Rect(0, 0, 10, 10)
        region = region_from_rect_minus_holes(container, [Rect(2, 2, 4, 4)])
        assert region.area == pytest.approx(96.0)
        region.validate_disjoint()
        assert not region.contains_point(Point(3, 3))
        assert region.contains_point(Point(1, 1))

    def test_overlapping_holes_not_double_counted(self):
        container = Rect(0, 0, 10, 10)
        region = region_from_rect_minus_holes(
            container, [Rect(0, 0, 6, 6), Rect(4, 4, 10, 10)])
        # union of holes covers 36 + 36 - 4 = 68
        assert region.area == pytest.approx(100 - 68)
        region.validate_disjoint()

    @given(st.lists(holes(Rect(0, 0, 100, 100)), max_size=6))
    def test_properties(self, hole_list):
        container = Rect(0, 0, 100, 100)
        region = region_from_rect_minus_holes(container, hole_list)
        region.validate_disjoint()
        # area never exceeds the container and never goes negative
        assert -1e-6 <= region.area <= container.area + 1e-6
        # no piece overlaps any hole's interior
        for piece in region.pieces:
            assert container.contains_rect(piece)
            for hole in hole_list:
                assert not piece.interior_intersects(hole)

    @given(st.lists(holes(Rect(0, 0, 100, 100)), max_size=4),
           st.floats(min_value=1, max_value=99),
           st.floats(min_value=1, max_value=99))
    def test_containment_matches_hole_membership(self, hole_list, px, py):
        container = Rect(0, 0, 100, 100)
        region = region_from_rect_minus_holes(container, hole_list)
        p = Point(px, py)
        inside_hole = any(hole.interior_contains_point(p)
                          for hole in hole_list)
        if inside_hole:
            assert not region.contains_point(p)
        else:
            # Closed pieces cover everything outside the hole interiors.
            assert region.contains_point(p)
