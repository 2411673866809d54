"""Tests for rectilinear regions (unions of disjoint rectangles)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.geometry import Point, Rect, RectilinearRegion


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

