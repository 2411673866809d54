"""Microbenchmarks: safe-region computation latencies.

Statistical per-computation timings for the three techniques at a
realistic per-cell alarm load — the server-side cost of one safe-region
recomputation, which multiplied by the exit rate is the safe-region
share of Fig. 4(b)/6(d).
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.mobility import SteadyMotionModel
from repro.saferegion import MWPSRComputer, PBSRComputer, PyramidBitmap

CELL = Rect(0, 0, 1667, 1667)


def _scenarios(count=128, alarms_per_cell=3, seed=4):
    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        obstacles = []
        for _ in range(alarms_per_cell):
            x = rng.uniform(0, 1500)
            y = rng.uniform(0, 1500)
            side = rng.uniform(50, 250)
            obstacles.append(Rect(x, y, x + side, y + side))
        position = Point(rng.uniform(0, 1667), rng.uniform(0, 1667))
        obstacles = [o for o in obstacles
                     if not o.interior_contains_point(position)]
        scenarios.append((position, rng.uniform(-3, 3), obstacles))
    return scenarios


@pytest.fixture(scope="module")
def scenarios():
    return _scenarios()


def _cycled(scenarios):
    counter = iter(range(10**9))

    def take():
        return scenarios[next(counter) % len(scenarios)]

    return take


def test_mwpsr_adaptive(benchmark, scenarios):
    computer = MWPSRComputer(SteadyMotionModel(1, 32))
    take = _cycled(scenarios)

    def compute():
        position, heading, obstacles = take()
        return computer.compute(position, heading, CELL, obstacles)

    benchmark(compute)


def test_mwpsr_pure_greedy(benchmark, scenarios):
    computer = MWPSRComputer(SteadyMotionModel(1, 32), auto_threshold=0)
    take = _cycled(scenarios)

    def compute():
        position, heading, obstacles = take()
        return computer.compute(position, heading, CELL, obstacles)

    benchmark(compute)


def test_pbsr_h5_bitmap_build(benchmark, scenarios):
    computer = PBSRComputer(height=5)
    take = _cycled(scenarios)

    def compute():
        _, _, obstacles = take()
        region = computer.compute(CELL, obstacles)
        return region.size_bits()

    benchmark(compute)


def test_pyramid_probe(benchmark, scenarios):
    """The client-side cost: one O(h) containment probe."""
    _, _, obstacles = scenarios[0]
    pyramid = Pyramid(CELL, height=5)
    bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
    points = [Point(13.0 * k % 1667, 29.0 * k % 1667) for k in range(97)]
    counter = iter(range(10**9))

    def probe():
        return bitmap.probe(points[next(counter) % len(points)])

    benchmark(probe)
