"""Cost-shape tests: where the bitmap's work happens, and how much.

The bitmap is built once, inside the safe-region computation; charging
its downlink is an attribute read, and an alarm swallowing a whole cell
costs O(1) storage however tall the pyramid.  These tests pin the shape
of the cost, not a wall time.
"""

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.protocol.messages import InstallSafeRegion
from repro.protocol.wire import WireCodec, pack_cell_ref
from repro.saferegion import BitmapSafeRegion, PBSRComputer, PyramidBitmap

CELL = Rect(0.0, 0.0, 900.0, 900.0)
ALARMS = [Rect(100.0, 100.0, 420.0, 380.0), Rect(500.0, 610.0, 640.0, 880.0)]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sizing_a_bitmap_downlink_does_no_pyramid_work(monkeypatch):
    region = PBSRComputer(height=5).compute(CELL, ALARMS)
    message = InstallSafeRegion(cell_ref=pack_cell_ref(1, 2),
                                bitmap=region.bitmap)
    codec = WireCodec()
    cell_rects = _count_calls(monkeypatch, Pyramid, "cell_rect")
    intersections = _count_calls(monkeypatch, Rect, "interior_intersects")
    size = codec.size_of_response(message)
    assert region.size_bits() == region.bitmap.bit_length()
    assert "bits=%d" % region.size_bits() in repr(region)
    assert not cell_rects and not intersections
    # ... and the charge is what encoding actually produces.
    assert size == len(codec.encode_response(message))


def test_probing_builds_no_rectangles(monkeypatch):
    bitmap = PyramidBitmap.from_obstacles(Pyramid(CELL, height=5), ALARMS)
    cell_rects = _count_calls(monkeypatch, Pyramid, "cell_rect")
    intersections = _count_calls(monkeypatch, Rect, "interior_intersects")
    assert bitmap.probe(Point(800.0, 100.0)) == (True, 2)
    assert bitmap.probe(Point(200.0, 200.0)) == (False, 6)
    assert not cell_rects and not intersections


def test_a_swallowed_cell_stores_one_cell_at_any_height():
    pyramid = Pyramid(CELL, height=7)
    bitmap = PyramidBitmap.from_obstacles(pyramid, [CELL.expanded(50.0)])
    assert sum(len(cells) for cells in bitmap._levels) == 1
    # The wire still carries the fully split all-zero pyramid.
    assert bitmap.bit_length() == (9 ** 8 - 1) // 8
    assert bitmap.coverage() == 0.0
    assert bitmap.probe(Point(1.0, 899.0)) == (False, 8)
    assert BitmapSafeRegion(bitmap).area() == 0.0


def test_storage_follows_the_alarm_boundary_not_its_area():
    """A big alarm inside the cell: stored cells grow like its perimeter
    (x fan per level), the wire like its area (x fanout)."""
    stored, wire = [], []
    for height in (5, 6, 7):
        bitmap = PyramidBitmap.from_obstacles(
            Pyramid(CELL, height=height), [Rect(130.0, 170.0, 770.0, 740.0)])
        stored.append(sum(len(cells) for cells in bitmap._levels))
        wire.append(bitmap.bit_length())
    assert stored[2] < 4 * stored[1] < 16 * stored[0]
    assert wire[2] > 7 * wire[1] > 49 * wire[0]
    assert stored[2] * 50 < wire[2]
