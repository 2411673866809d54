"""Differential suite: packed safe-region kernels vs their scalar oracles.

Every kernel in :mod:`repro.saferegion.packed` reproduces one scalar
code path bit for bit; this module holds each pairing to it.  The
bitstring codec is checked against the serialized pyramid bitmaps it
packs and the MWPSR quadrant skyline against the computer's own
candidate generation — including a full ``compute(batched=True)`` vs
scalar comparison above the gate threshold, where the array path
actually engages.  ``TestProbeDifferential`` predates the one runtime
bitmap (it used to pair batch probe kernels with two scalar classes);
it now holds the level-packed :class:`PyramidBitmap` — as built and as
decoded from the wire — to the cell-by-cell oracle on points that sit
bit-exactly on cell edges.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.geometry.batch import RectBatch
from repro.index import Pyramid
from repro.saferegion.bitmap import PyramidBitmap, decode_bitstring
from repro.saferegion.mwpsr import (_BATCH_MIN_OBSTACLES, _QUADRANT_SIGNS,
                                    MWPSRComputer)
from repro.saferegion.packed import (pack_bitstring, popcount,
                                     quadrant_skyline, unpack_bitstring)

from .oracle import build_pyramid_bitmap

bitstrings = st.text(alphabet="01", min_size=0, max_size=300)


# ----------------------------------------------------------------------
# Fixtures: busy pyramids and point populations
# ----------------------------------------------------------------------
BASE = Rect(0.0, 0.0, 900.0, 900.0)


def _obstacles(rng, count=24):
    rects = []
    for _ in range(count):
        x = rng.uniform(0.0, 850.0)
        y = rng.uniform(0.0, 850.0)
        side = rng.uniform(20.0, 120.0)
        rects.append(Rect(x, y, x + side, y + side))
    return rects


def _probe_points(rng, count=400):
    """Random points over (and just beyond) the base, plus exact edges.

    The appended points sit bit-exactly on level-2 cell edges — the
    locate arithmetic's knife edge, where a drifted reimplementation
    would round a point into the neighbouring cell.
    """
    points = [Point(rng.uniform(-10.0, 910.0), rng.uniform(-10.0, 910.0))
              for _ in range(count)]
    for k in range(10):
        edge = BASE.min_x + BASE.width * k / 9
        points.append(Point(edge, BASE.min_y + BASE.height * k / 9))
        points.append(Point(edge, 450.0))
    return points


# ----------------------------------------------------------------------
# Bitstring codec
# ----------------------------------------------------------------------
class TestBitstringCodec:
    @given(bitstrings)
    def test_roundtrip_and_popcount(self, bits):
        words, bit_length = pack_bitstring(bits)
        assert bit_length == len(bits)
        assert unpack_bitstring(words, bit_length) == bits
        assert popcount(words) == bits.count("1")

    @given(bitstrings)
    def test_word_layout_is_little_endian_64(self, bits):
        words, _ = pack_bitstring(bits)
        assert int(words.size) == -(-len(bits) // 64)
        for index, char in enumerate(bits):
            bit = (int(words[index // 64]) >> (index % 64)) & 1
            assert bit == int(char)

    def test_rejects_non_binary_characters(self):
        with pytest.raises(ValueError):
            pack_bitstring("0102")

    def test_unpack_rejects_overlong_bit_length(self):
        words, bit_length = pack_bitstring("1010")
        with pytest.raises(ValueError):
            unpack_bitstring(words, int(words.size) * 64 + 1)

    def test_packed_bitmap_round_trips_the_serialization(self):
        rng = random.Random(5)
        bitmap = PyramidBitmap.from_obstacles(Pyramid(BASE, height=3),
                                              _obstacles(rng))
        bits = bitmap.to_bitstring()
        words, bit_length = pack_bitstring(bits)
        assert unpack_bitstring(words, bit_length) == bits
        assert bit_length == bitmap.bit_length()
        assert popcount(words) == bits.count("1")


# ----------------------------------------------------------------------
# Probes of the level-packed bitmap
# ----------------------------------------------------------------------
class TestProbeDifferential:
    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_packed_probe_matches_eager_bitmap(self, height):
        rng = random.Random(height)
        pyramid = Pyramid(BASE, height=height)
        obstacles = _obstacles(rng)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        eager, _ = build_pyramid_bitmap(pyramid, obstacles)
        for point in _probe_points(rng):
            assert bitmap.probe(point) == eager.probe(point)

    @pytest.mark.parametrize("height", (1, 2, 4))
    def test_lazy_probe_matches_lazy_bitmap(self, height):
        """What a socket client decodes probes like what the server built."""
        rng = random.Random(10 + height)
        pyramid = Pyramid(BASE, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, _obstacles(rng))
        decoded = decode_bitstring(pyramid, bitmap.to_bitstring())
        for point in _probe_points(rng):
            assert decoded.probe(point) == bitmap.probe(point)

    def test_lazy_probe_with_no_obstacles(self):
        bitmap = PyramidBitmap.from_obstacles(Pyramid(BASE, height=2), [])
        points = [Point(1.0, 1.0), Point(-5.0, 3.0), Point(899.0, 899.0)]
        # The root bit is 1: inside answers at level 0; outside the
        # base is (False, 1).
        assert [bitmap.probe(p) for p in points] \
            == [(True, 1), (False, 1), (True, 1)]


# ----------------------------------------------------------------------
# MWPSR quadrant skyline
# ----------------------------------------------------------------------
class TestQuadrantSkyline:
    def test_tension_points_match_scalar_per_quadrant(self):
        rng = random.Random(41)
        computer = MWPSRComputer()
        cell = Rect(0.0, 0.0, 1000.0, 1000.0)
        for trial in range(20):
            obstacles = _obstacles(rng, count=rng.randrange(0, 40))
            origin = Point(rng.uniform(1.0, 999.0),
                           rng.uniform(1.0, 999.0))
            batch = RectBatch.from_rects(obstacles)
            for signs in _QUADRANT_SIGNS:
                scalar = computer._quadrant_tension_points(
                    origin, cell, obstacles, signs)
                batched = computer._quadrant_tension_points(
                    origin, cell, obstacles, signs, batch)
                assert batched == scalar, (trial, signs)

    def test_skyline_kernel_handles_duplicates(self):
        # Two identical obstacles: the scalar path dedups via set();
        # the kernel's accumulate scan must drop the twin the same way.
        origin = Point(0.0, 0.0)
        rect = Rect(10.0, 20.0, 30.0, 40.0)
        batch = RectBatch.from_rects([rect, rect])
        assert quadrant_skyline(origin, batch, (1, 1), 100.0, 100.0) \
            == [(10.0, 20.0)]

    def test_full_compute_is_identical_above_the_gate(self):
        rng = random.Random(47)
        computer = MWPSRComputer()
        cell = Rect(0.0, 0.0, 1000.0, 1000.0)
        obstacles = []
        while len(obstacles) < _BATCH_MIN_OBSTACLES + 8:
            x = rng.uniform(0.0, 970.0)
            y = rng.uniform(0.0, 970.0)
            side = rng.uniform(8.0, 30.0)
            candidate = Rect(x, y, x + side, y + side)
            if not candidate.interior_contains_point(Point(500.0, 500.0)):
                obstacles.append(candidate)
        scalar = computer.compute(Point(500.0, 500.0), 0.7, cell,
                                  obstacles)
        batched = computer.compute(Point(500.0, 500.0), 0.7, cell,
                                   obstacles, batched=True)
        assert batched == scalar
