"""Ablation A3b: bits per region if covered subtrees were pruned.

Fig. 6(b) is a recorded deviation: the paper calls PBSR(h=5) the best
approach on downstream bandwidth, here MWPSR's 32-byte rectangles
undercut it.  One suspect is the encoding.  A cell that lies inside an
alarm region is a 0-cell whose whole subtree is zero bits, and the
paper's wire format carries every one of them, while
:class:`~repro.saferegion.PyramidBitmap` stores the cell once, as
``COVERED``.  The stored form is therefore a lower bound for a wire
format that prunes covered subtrees: one symbol per stored cell,
``sum(len(level))``.

For every public-alarm share of Fig. 6(b) this reports, per region
*served* (memo hits included, as the downlink counts them), the bits on
the wire against that pruned bound, beside MWPSR's 256-bit rectangle,
and the run's whole downlink both ways beside MWPSR's (PBSR serves
fewer regions than MWPSR, so the per-region sizes alone do not decide
the figure).  It also reports the largest PBSR(h=7) payload against the 16-bit length
field of the frame header (``protocol/wire.py``), which is what makes a
``pbsr:7 --verify-wire`` run fail.  Sizes only: no wire change, and the
goldens are untouched.
"""

from repro.engine import run_simulation
from repro.experiments import (BENCH, Table, build_world,
                               make_mwpsr_strategy)
from repro.experiments.figures import PUBLIC_SWEEP
from repro.protocol.wire import BITMAP_FIXED_SIZE
from repro.saferegion import PBSRComputer
from repro.strategies import BitmapSafeRegionStrategy
from repro.strategies.bitmap import BitmapPolicy

from .conftest import print_table

#: Four doubles: MWPSR's rectangle payload.
MWPSR_PAYLOAD_BITS = 256
LENGTH_FIELD_MAX = 0xFFFF


class _RecordingStrategy(BitmapSafeRegionStrategy):
    """PBSR whose server notes ``(wire bits, stored cells)`` per region."""

    def __init__(self, height):
        super().__init__(PBSRComputer(height=height),
                         name="PBSR(h=%d), recorded" % height)
        self.sizes = []

    def server_policy(self):
        sizes = self.sizes

        class Recording(BitmapPolicy):
            def _build(self, *args):
                message = super()._build(*args)
                bitmap = message.bitmap
                sizes.append((bitmap.bit_length(),
                              sum(len(cells) for cells in bitmap._levels)))
                return message

        return Recording(self.computer)


def _replay(public, height):
    """``(downlink bytes, [(wire bits, stored cells)] per region served)``."""
    strategy = _RecordingStrategy(height)
    world = build_world(BENCH.with_public_fraction(public))
    result = run_simulation(world, strategy)
    assert result.accuracy.perfect
    return result.metrics.downlink_bytes, strategy.sizes


def _payload_bytes(bits):
    return BITMAP_FIXED_SIZE + (bits + 7) // 8


def _sweep():
    rows = []
    for public in PUBLIC_SWEEP:
        downlink, sizes = _replay(public, 5)
        pruned_downlink = downlink + sum(
            (pruned + 7) // 8 - (wire + 7) // 8 for wire, pruned in sizes)
        mwpsr = run_simulation(build_world(BENCH.with_public_fraction(public)),
                               make_mwpsr_strategy(z=32))
        _, tall = _replay(public, 7)
        rows.append((round(100 * public), len(sizes),
                     sum(wire for wire, _ in sizes) / len(sizes),
                     sum(pruned for _, pruned in sizes) / len(sizes),
                     MWPSR_PAYLOAD_BITS, downlink, pruned_downlink,
                     mwpsr.metrics.downlink_bytes,
                     max(_payload_bytes(wire) for wire, _ in tall),
                     max(_payload_bytes(pruned) for _, pruned in tall)))
    return rows


def test_ablation_pruned_covered(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = Table("Ablation: PBSR bits per served region, wire vs pruned "
                  "covered subtrees (h=5 unless noted)",
                  ["% public", "regions", "wire bits", "pruned bits",
                   "MWPSR bits", "downlink B", "pruned downlink B",
                   "MWPSR downlink B", "h=7 max payload B",
                   "h=7 pruned max B"])
    for row in rows:
        table.add_row(*row)
    print_table(table)
    print("16-bit length field: payloads up to %d B" % LENGTH_FIELD_MAX)

    for (public, regions, wire, pruned, _, downlink, pruned_downlink,
         mwpsr_downlink, tall_wire, tall_pruned) in rows:
        assert regions > 0
        # covered subtrees are a real share of the wire...
        assert pruned < wire and pruned_downlink < downlink
        # ...and pruned, no h=7 region would overflow the length field
        assert tall_pruned < min(tall_wire, LENGTH_FIELD_MAX)
        if public >= 10:
            # but pruning alone does not undercut MWPSR's rectangles
            assert pruned_downlink > mwpsr_downlink
