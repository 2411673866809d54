"""Tests for the safe-region invariant check."""

from repro.geometry import Rect
from repro.saferegion import region_is_safe


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

