"""Client-side containment monitoring over the encoded wire format.

The simulation engine keeps client state as Python objects for speed;
this module is the *wire-true* client: a :class:`ClientMonitor` consumes
the actual encoded downlink bytes (see :mod:`repro.protocol.wire`),
decodes them the way a real device would — the paper's "safe region
containment detection algorithm which performs pyramid bitmap decoding"
(Section 4.2) — and monitors position fixes against the decoded
structure.  An integration test replays a simulation through both paths
and asserts they report at identical fixes, which pins the in-memory
fast path to the byte-level protocol.
"""

from __future__ import annotations

from typing import Optional

from ..geometry import Point, Rect
from ..index import Pyramid
from ..protocol.wire import (MessageType, decode_bitmap_region,
                             decode_rect_region, decode_safe_period,
                             peek_type)
from .base import RectangularSafeRegion, SafeRegion
from .bitmap import BitmapSafeRegion


class ClientMonitor:
    """A mobile device's view of the protocol: bytes in, decisions out.

    The monitor understands the three safe-region-bearing downlink
    types.  For bitmap regions it must be told the pyramid geometry of
    its grid (``fan``/``height``), since the wire format sends only the
    cell reference and bits; the grid parameters are deployment
    configuration shared by server and clients.
    """

    def __init__(self, fan: int = 3, height: int = 5) -> None:
        self.fan = fan
        self.height = height
        # decoded safe region, if any
        self._region: Optional[SafeRegion] = None
        self._cell_rect: Optional[Rect] = None
        self._expiry: float = float("-inf")
        self.probes = 0

    # ------------------------------------------------------------------
    def receive(self, data: bytes,
                cell_rect: Optional[Rect] = None) -> None:
        """Decode one downlink and update the monitoring state.

        ``cell_rect`` must accompany bitmap downlinks (the client derives
        it from the cell reference and its grid configuration; the
        simulation hands it over directly).
        """
        message_type = peek_type(data)
        if message_type is MessageType.RECT_SAFE_REGION:
            rect = decode_rect_region(data)
            self._region = RectangularSafeRegion(rect)
            self._cell_rect = cell_rect
            self._expiry = float("-inf")
        elif message_type is MessageType.BITMAP_SAFE_REGION:
            if cell_rect is None:
                raise ValueError("bitmap downlinks need the cell rectangle")
            pyramid = Pyramid(cell_rect, fan_cols=self.fan,
                              fan_rows=self.fan, height=self.height)
            _, bitmap = decode_bitmap_region(data, pyramid)
            self._region = BitmapSafeRegion(bitmap)
            self._cell_rect = cell_rect
            self._expiry = float("-inf")
        elif message_type is MessageType.SAFE_PERIOD:
            self._expiry = decode_safe_period(data)
            self._region = None
        else:
            raise ValueError("monitor cannot consume %r" % message_type)

    # ------------------------------------------------------------------
    def should_report(self, time: float, position: Point) -> bool:
        """The client's per-fix decision: stay silent or contact the server.

        Mirrors the built-in strategies: a safe-period client reports on
        expiry; a safe-region client reports when outside its region or
        its base cell; an uninitialized client always reports.
        """
        if self._region is None and self._expiry > float("-inf"):
            return time >= self._expiry
        if self._region is None:
            return True
        if (self._cell_rect is not None
                and not self._cell_rect.contains_point(position)):
            return True
        inside, ops = self._region.probe(position)
        self.probes += ops
        return not inside

    @property
    def has_region(self) -> bool:
        return self._region is not None

    def region_area(self) -> float:
        """Area of the currently held safe region (0 when none)."""
        if self._region is None:
            return 0.0
        return self._region.area()
