"""Tests for the safe-region base abstractions."""

import pytest

from repro.geometry import Point, Rect
from repro.saferegion import (FLOAT_BITS, RectangularSafeRegion, SafeRegion,
                              region_is_safe)


class TestContract:
    def test_subclass_without_size_bits_cannot_be_instantiated(self):
        """The bandwidth model charges size_bits(): a region that cannot
        say fails where it is built, not at its first downlink."""

        class Unsized(SafeRegion):
            def probe_xy(self, x, y):
                return True, 1

            def area(self):
                return 0.0

        with pytest.raises(TypeError, match="size_bits"):
            Unsized()


class TestRectangularSafeRegion:
    def test_probe_inside(self):
        region = RectangularSafeRegion(Rect(0, 0, 10, 10))
        inside, ops = region.probe(Point(5, 5))
        assert inside
        assert ops == 1

    def test_probe_boundary_is_inside(self):
        region = RectangularSafeRegion(Rect(0, 0, 10, 10))
        assert region.probe(Point(0, 5)) == (True, 1)

    def test_probe_outside(self):
        region = RectangularSafeRegion(Rect(0, 0, 10, 10))
        assert region.probe(Point(11, 5)) == (False, 1)

    def test_size_is_four_floats(self):
        region = RectangularSafeRegion(Rect(0, 0, 1, 1))
        assert region.size_bits() == 4 * FLOAT_BITS

    def test_area(self):
        assert RectangularSafeRegion(Rect(0, 0, 4, 5)).area() == 20.0

    def test_repr_mentions_rect(self):
        assert "Rect" in repr(RectangularSafeRegion(Rect(0, 0, 1, 1)))


class TestRegionIsSafe:
    def test_disjoint_is_safe(self):
        assert region_is_safe(Rect(0, 0, 10, 10), [Rect(20, 20, 30, 30)])

    def test_touching_is_safe(self):
        assert region_is_safe(Rect(0, 0, 10, 10), [Rect(10, 0, 20, 10)])

    def test_overlap_is_unsafe(self):
        assert not region_is_safe(Rect(0, 0, 10, 10), [Rect(5, 5, 20, 20)])

    def test_no_obstacles_is_safe(self):
        assert region_is_safe(Rect(0, 0, 10, 10), [])

    def test_tolerance_absorbs_float_slack(self):
        region = Rect(0, 0, 10.0 + 1e-12, 10)
        assert region_is_safe(region, [Rect(10, 0, 20, 10)])

    def test_tolerance_does_not_hide_real_overlap(self):
        region = Rect(0, 0, 10.5, 10)
        assert not region_is_safe(region, [Rect(10, 0, 20, 10)])

    def test_custom_tolerance(self):
        region = Rect(0, 0, 10.5, 10)
        assert region_is_safe(region, [Rect(10, 0, 20, 10)], tolerance=1.0)

