"""The paper's Fig. 3 worked example, reproduced bit for bit.

Fig. 3 of the paper encodes the safe region of one grid cell with four
intersecting alarm regions three ways and states the exact costs:

* a 3x3 grid bitmap (GBSR) uses 10 bits and represents the region as
  ``0 000011010``;
* a 9x9 grid bitmap (GBSR) uses 82 bits (1 + 81);
* a height-2 pyramid with 3x3 splits (PBSR) uses 64 bits — 1 for the
  cell, 9 at level 1, and 9 for each of the six unsafe level-1 cells.

We reconstruct an alarm layout matching Fig. 3(a)'s level-1 pattern
(safe cells: center, middle-right, bottom-middle) and assert all three
counts and the level-1 bitstring.
"""

import pytest

from repro.geometry import Rect
from repro.index import Pyramid
from repro.saferegion import PBSRComputer, PyramidBitmap

from .oracle import build_pyramid_bitmap

# A 900x900 grid cell; level-1 cells are 300x300.  In Fig. 3(b) the safe
# (bit 1) level-1 cells are: center, middle-right, bottom-middle — the
# raster-scan bitmap over rows top-to-bottom is 000 011 010.
CELL = Rect(0, 0, 900, 900)

# Alarm regions chosen so every level-1 cell except the three safe ones
# has an intersecting alarm (mimicking the four overlapping alarm
# regions R(S,A1..A4) of Fig. 3(a)).
ALARMS = [
    Rect(0, 600, 900, 890),      # covers the whole top row
    Rect(0, 0, 250, 620),        # left column, bottom and middle
    Rect(610, 100, 880, 250),    # bottom-right cell
]


def _level1_pattern(bits):
    """The nine level-1 bits from a full bitstring (after the root bit)."""
    return bits[1:10]


class TestFig3Counts:
    def test_gbsr_3x3_is_10_bits_with_paper_pattern(self):
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=1)
        bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        assert bitmap.bit_length() == 10
        assert bitmap.to_bitstring() == "0000011010"

    def test_gbsr_9x9_is_82_bits(self):
        """Fig. 3(c): 1 bit for the cell plus 81 bits for the 9x9 grid."""
        pyramid = Pyramid(CELL, fan_cols=9, fan_rows=9, height=1)
        bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        assert bitmap.bit_length() == 82

    def test_pbsr_h2_is_64_bits(self):
        """Fig. 3(d): 1 + 9 + 6 * 9 = 64 bits for the same safe region."""
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=2)
        bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        assert bitmap.bit_length() == 64
        assert _level1_pattern(bitmap.to_bitstring()) == "000011010"

    def test_pbsr_smaller_than_fine_gbsr(self):
        """The paper's point: 64 < 82 at no less accuracy."""
        fine = Pyramid(CELL, fan_cols=9, fan_rows=9, height=1)
        fine_bitmap = PyramidBitmap.from_obstacles(fine, ALARMS)
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=2)
        pbsr_bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        assert pbsr_bitmap.bit_length() < fine_bitmap.bit_length()
        # level-2 3x3-of-3x3 cells coincide with the 9x9 grid, so the
        # two representations cover the identical safe region
        assert pbsr_bitmap.coverage() == pytest.approx(
            fine_bitmap.coverage())

    def test_lazy_reproduces_the_same_counts(self):
        """The cell-by-cell oracle agrees on all three Fig. 3 sizes."""
        for fan, height, expected in ((3, 1, 10), (9, 1, 82), (3, 2, 64)):
            pyramid = Pyramid(CELL, fan_cols=fan, fan_rows=fan, height=height)
            oracle, _ = build_pyramid_bitmap(pyramid, ALARMS)
            assert oracle.bit_length() == expected


class TestComputersOnExample:
    def test_gbsr_computer(self):
        region = PBSRComputer(height=1, fan=3).compute(CELL, ALARMS)
        assert region.size_bits() == 10
        fine = PBSRComputer(height=1, fan=9).compute(CELL, ALARMS)
        assert fine.size_bits() == 82  # Fig. 3(c)

    def test_pbsr_computer(self):
        region = PBSRComputer(height=2).compute(CELL, ALARMS)
        assert region.size_bits() == 64

    def test_coverage_improves_with_height(self):
        shallow = PBSRComputer(height=1).compute(CELL, ALARMS)
        deep = PBSRComputer(height=4).compute(CELL, ALARMS)
        assert deep.bitmap.coverage() > shallow.bitmap.coverage()
