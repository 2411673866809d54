"""E10 / Fig. 3: bitmap encoding sizes on the paper's worked example.

The paper states exact byte-for-byte costs for one cell with four
intersecting alarm regions: 10 bits for the 3x3 GBSR, 82 bits for the
9x9 GBSR, 64 bits for the height-2 PBSR.  This benchmark regenerates
the comparison (and times the encoders).
"""

from repro.experiments import Table
from repro.geometry import Rect
from repro.index import Pyramid
from repro.saferegion import PyramidBitmap

from .conftest import print_table

CELL = Rect(0, 0, 900, 900)
ALARMS = [
    Rect(0, 600, 900, 890),
    Rect(0, 0, 250, 620),
    Rect(610, 100, 880, 250),
]

CONFIGS = (
    ("GBSR 3x3 (Fig 3b)", 3, 1, 10),
    ("GBSR 9x9 (Fig 3c)", 9, 1, 82),
    ("PBSR h=2 (Fig 3d)", 3, 2, 64),
)


def _encode_all():
    results = []
    for name, fan, height, expected in CONFIGS:
        pyramid = Pyramid(CELL, fan_cols=fan, fan_rows=fan, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, ALARMS)
        results.append((name, bitmap, expected))
    return results


def test_fig3_encoding_size(benchmark):
    results = benchmark(_encode_all)

    table = Table("Fig 3: bitmap encoded safe region sizes",
                  ["encoding", "bits (paper)", "bits (ours)", "coverage"])
    for name, bitmap, expected in results:
        table.add_row(name, expected, bitmap.bit_length(),
                      bitmap.coverage())
    print_table(table)

    for name, bitmap, expected in results:
        assert bitmap.bit_length() == expected, name

    # the paper's punchline: PBSR h=2 is smaller than the 9x9 GBSR at the
    # same coverage
    gbsr9 = results[1][1]
    pbsr = results[2][1]
    assert pbsr.bit_length() < gbsr9.bit_length()
    assert abs(pbsr.coverage() - gbsr9.coverage()) < 1e-12
