"""Ablation A3: pyramid split factor U x V (DESIGN.md #3).

The paper fixes U = V = 3 in its figures but leaves U, V as system
parameters.  This ablation compares 2x2 against 3x3 splits at matched
*leaf resolution* (2^6 = 64 vs 3^4 = 81 cells per side are the closest
match), measuring bitmap size against achieved coverage over a sample of
alarm-loaded cells.
"""

import random

from repro.experiments import Table
from repro.geometry import Rect
from repro.index import Pyramid
from repro.saferegion import PyramidBitmap

from .conftest import print_table

CELL = Rect(0, 0, 1600, 1600)
VARIANTS = (("2x2, h=6", 2, 6), ("3x3, h=4", 3, 4))


def _random_cells(count=40, seed=17):
    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        obstacles = []
        for _ in range(rng.randint(1, 5)):
            x = rng.uniform(0, 1500)
            y = rng.uniform(0, 1500)
            side = rng.uniform(50, 250)
            obstacles.append(Rect(x, y, x + side, y + side))
        scenarios.append(obstacles)
    return scenarios


def _sweep():
    scenarios = _random_cells()
    rows = []
    for name, fan, height in VARIANTS:
        total_bits = 0
        total_coverage = 0.0
        for obstacles in scenarios:
            pyramid = Pyramid(CELL, fan_cols=fan, fan_rows=fan,
                              height=height)
            bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
            total_bits += bitmap.bit_length()
            total_coverage += bitmap.coverage()
        rows.append((name, total_bits / len(scenarios),
                     total_coverage / len(scenarios)))
    return rows


def test_ablation_pyramid_fan(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = Table("Ablation: pyramid split factor at matched resolution",
                  ["variant", "avg bits", "avg coverage"])
    for row in rows:
        table.add_row(*row)
    print_table(table)

    (_, bits_2x2, cov_2x2), (_, bits_3x3, cov_3x3) = rows
    # both reach high coverage on small-alarm cells
    assert cov_2x2 > 0.9
    assert cov_3x3 > 0.9
    # coverages are comparable at matched resolution
    assert abs(cov_2x2 - cov_3x3) < 0.05
