"""Distributed processing with bitmap-encoded safe regions (GBSR/PBSR).

The server ships a bitmap safe region covering the client's current base
grid cell (an :class:`~repro.protocol.messages.InstallSafeRegion`
carrying a cell reference plus the pyramid bitmap); the client derives
the cell rectangle from the reference and its grid configuration, then
walks the pyramid (at most h + 1 bit probes per fix) to monitor itself.
A walk that ends in a safe cell hands back that cell's rectangle, and
the fixes after it are tested against the rectangle alone until one
leaves it — each still charged the walk's probes, since it is the
paper's cost model that is charged, not what the simulator executes.
Protocol events:

* client leaves the base cell -> :class:`RegionExitReport`; the server
  evaluates triggers, builds the bitmap for the new cell, ships it
  (this is the only event that *requires* recomputation — Section 4.2);
* client inside the cell but in an unsafe (bit 0) area ->
  :class:`LocationReport` every fix while there; the server evaluates
  triggers and, only when an alarm actually fired, folds the fired
  alarm back into the safe region and ships the updated bitmap (the
  paper's quick-update path);
* client in a safe (bit 1) area -> silence.

The frequent reports from unsafe areas are exactly why coarse bitmaps
(GBSR) flood the server with messages while tall pyramids approach the
rectangular strategies' message counts at higher client energy — the
trade-off of Fig. 5.

**Computation sharing** (paper §4.2): the region public alarms carve
out of a cell is the same for every subscriber, so a subscriber whose
pending alarms in the cell are all public is served from the server's
memo (:mod:`repro.saferegion.cache`), keyed by the cell, the pyramid
shape and exactly those alarm ids; one with a private or shared alarm
pending there gets a fresh build that is never shared.  Message and
byte totals do not depend on which happened: sharing short-circuits
only the *computation*, never the downlink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..alarms import AlarmScope, SpatialAlarm
from ..index import CellId
from ..mobility import Trace
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import (InstallSafeRegion, Request, Response,
                                 ServerReply)
from ..protocol.wire import pack_cell_ref, unpack_cell_ref
from ..saferegion import BitmapSafeRegion, PBSRComputer
from .base import ClientState, ProcessingStrategy

if TYPE_CHECKING:
    from ..engine.server import AlarmServer


class BitmapPolicy(ServerPolicy):
    """Server half of GBSR/PBSR: cell bitmaps, public ones shared."""

    #: ``AlarmServer.scratch`` key mapping user id -> the cell id whose
    #: bitmap that user currently holds (needed on the quick-update
    #: path, where the *installed* cell — not the cell of the reported
    #: position, which may sit on a shared boundary — must be rebuilt).
    SCRATCH_KEY = "bitmap.installed_cell"

    def __init__(self, computer: PBSRComputer) -> None:
        self.computer = computer

    def on_region_exit(self, server: "AlarmServer", request: Request,
                       time_s: float,
                       triggered: Sequence[SpatialAlarm]
                       ) -> Tuple[Response, ...]:
        cell_id = server.grid.cell_of(request.position)
        installed = server.scratch.setdefault(self.SCRATCH_KEY, {})
        installed[request.user_id] = cell_id
        return (self._build(server, request.user_id, time_s, cell_id),)

    def on_location_report(self, server: "AlarmServer", request: Request,
                           time_s: float,
                           triggered: Sequence[SpatialAlarm]
                           ) -> Tuple[Response, ...]:
        # Unsafe-area report: only a firing changes the bitmap, so only
        # then is a re-ship worth its bytes (quick-update, Section 4.2).
        if not triggered:
            return ()
        installed = server.scratch.get(self.SCRATCH_KEY, {})
        cell_id = installed.get(request.user_id)
        if cell_id is None:  # no bitmap installed: nothing to update
            return ()
        return (self._build(server, request.user_id, time_s, cell_id),)

    # ------------------------------------------------------------------
    def _build(self, server: "AlarmServer", user_id: int, time_s: float,
               cell_id: CellId) -> InstallSafeRegion:
        """The install message for one cell's bitmap.

        One safe region served, timed and counted as one, whether the
        bitmap was built for this subscriber or shared.
        """
        cell = server.grid.cell_rect(cell_id)
        with server.timed_saferegion(user_id, time_s):
            pending = server.pending_alarms_in(user_id, cell)

            def build() -> BitmapSafeRegion:
                return self.computer.compute(
                    cell, [alarm.region for alarm in pending])

            if all(alarm.scope is AlarmScope.PUBLIC for alarm in pending):
                # pending is in id order, so the ids name the alarms; the
                # shape keeps clients of different heights apart
                computer = self.computer
                region = server.shared_region(
                    user_id,
                    (cell_id, (computer.height, computer.fan),
                     tuple(alarm.alarm_id for alarm in pending)),
                    build)
            else:
                region = build()
        return InstallSafeRegion(
            cell_ref=pack_cell_ref(cell_id.col, cell_id.row),
            bitmap=region.bitmap)


class BitmapSafeRegionStrategy(ProcessingStrategy):
    """Safe region-based processing with pyramid bitmaps.

    ``computer`` is a :class:`~repro.saferegion.PBSRComputer` of any
    height; height 1 is the GBSR configuration.
    """

    def __init__(self, computer: Optional[PBSRComputer] = None,
                 name: str = "PBSR") -> None:
        self.computer = computer if computer is not None else PBSRComputer()
        self.name = name

    def server_policy(self) -> BitmapPolicy:
        return BitmapPolicy(self.computer)

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        index = start
        cell = client.footprint
        if cell is not None:
            # The cell footprint is only ever installed with a bitmap.
            region = client.safe_region
            assert isinstance(region, BitmapSafeRegion)
            walk = region.bitmap.walk
            min_x, min_y = cell.min_x, cell.min_y
            max_x, max_y = cell.max_x, cell.max_y
            xs, ys = trace.xs, trace.ys
            probes = ops = 0
            unsafe = False
            while index < stop:
                x, y = xs[index], ys[index]
                if not (min_x <= x <= max_x and min_y <= y <= max_y):
                    break  # left the cell: not a probe of the bitmap
                inside, levels, block = walk(x, y)
                probes += 1
                ops += levels
                if not inside:
                    unsafe = True
                    break
                block_min_x, block_min_y, block_max_x, block_max_y = block
                # Every fix in the safe block walks to the same 1-cell:
                # one rectangle test each, charged the walk's levels.
                index += 1
                entered = index
                while (index < stop
                       and block_min_x <= xs[index] < block_max_x
                       and block_min_y <= ys[index] < block_max_y):
                    index += 1
                probes += index - entered
                ops += (index - entered) * levels
            self._charge_probe(ops, probes)
            if index == stop:
                return stop
            if unsafe:
                # Unsafe area within the cell: plain report; the server
                # re-ships only when a firing actually changed the bitmap.
                reply = self._send_report(client, trace, index)
                self._install(client, trace.times[index], reply)
                return index + 1

        # Entered a new base cell (or first fix): full recomputation.
        # Leaving the cell ends the residency of the region scoped to it.
        self._note_region_exit(client, trace.times[index])
        reply = self._send_report(client, trace, index, exit=True)
        self._install(client, trace.times[index], reply)
        return index + 1

    # ------------------------------------------------------------------
    def _install(self, client: ClientState, time_s: float,
                 reply: ServerReply) -> None:
        for message in reply:
            if isinstance(message, InstallSafeRegion):
                assert message.cell_ref is not None
                assert message.bitmap is not None
                col, row = unpack_cell_ref(message.cell_ref)
                client.footprint = self.session.grid.cell_rect(
                    CellId(col, row))
                client.safe_region = BitmapSafeRegion(message.bitmap)
                self._mark_region_installed(client, time_s)
