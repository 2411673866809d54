"""Distributed processing with bitmap-encoded safe regions (GBSR/PBSR).

The server ships a bitmap safe region covering the client's current base
grid cell (an :class:`~repro.protocol.messages.InstallSafeRegion`
carrying a cell reference plus the pyramid bitmap); the client derives
the cell rectangle from the reference and its grid configuration, then
walks the pyramid (at most h + 1 bit probes per fix) to monitor itself.
A walk hands back the rectangle of the cell it stopped in, safe or
unsafe, and the fixes after it are tested against the rectangle alone
until one leaves it — each still charged the walk's probes, since it is
the paper's cost model that is charged, not what the simulator executes.
Protocol events:

* client leaves the base cell -> :class:`RegionExitReport`; the server
  evaluates triggers, builds the bitmap for the new cell, ships it
  (this is the only event that *requires* recomputation — Section 4.2);
* client inside the cell but in an unsafe (bit 0) area ->
  :class:`LocationReport` every fix while there; the server evaluates
  triggers and, only when an alarm actually fired, folds the fired
  alarm back into the safe region and ships the updated bitmap (the
  paper's quick-update path).  Every other reply is empty, so one
  ``advance`` call reports the whole unsafe run and returns only at a
  re-shipped bitmap or when the client leaves the cell;
* client in a safe (bit 1) area -> silence.

The frequent reports from unsafe areas are exactly why coarse bitmaps
(GBSR) flood the server with messages while tall pyramids approach the
rectangular strategies' message counts at higher client energy — the
trade-off of Fig. 5.

**Computation sharing** (paper §4.2): the region public alarms carve
out of a cell is the same for every subscriber, so every request takes
it from the server's memo (:mod:`repro.saferegion.cache`), keyed by the
cell, the pyramid shape and exactly the pending public alarm ids.  A
subscriber whose pending alarms there are all public is served that
bitmap itself; one with a private or shared alarm pending there gets it
edited by adding those alarms (:meth:`PyramidBitmap.edit` re-emits only
the blocks they touch), and the edit is never stored.  The firing path
takes the same route with the smaller pending set.  Message and byte
totals do not depend on which happened: sharing short-circuits only the
*computation*, never the downlink.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from ..alarms import AlarmScope, SpatialAlarm
from ..geometry import Point
from ..index import CellId
from ..mobility import Trace
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import (InstallSafeRegion, LocationReport, Request,
                                 Response, ServerReply)
from ..protocol.wire import pack_cell_ref, unpack_cell_ref
from ..saferegion import PBSRComputer, PyramidBitmap
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
        bitmap was shared, built or edited from the shared one.
        """
        cell = server.grid.cell_rect(cell_id)
        computer = self.computer
        with server.timed_saferegion(user_id, time_s):
            pending = server.pending_alarms_in(user_id, cell)
            public = [alarm for alarm in pending
                      if alarm.scope is AlarmScope.PUBLIC]
            edit: Optional[Callable[[PyramidBitmap], PyramidBitmap]] = None
            if len(public) < len(pending):
                # the shared bitmap plus this subscriber's own alarms
                edit = functools.partial(
                    computer.compute, cell,
                    [alarm.region for alarm in pending
                     if alarm.scope is not AlarmScope.PUBLIC])
            # pending is in id order, so the ids name the alarms; the
            # shape keeps clients of different heights apart
            bitmap = server.shared_region(
                user_id,
                (cell_id, (computer.height, computer.fan),
                 tuple(alarm.alarm_id for alarm in public)),
                lambda: computer.compute(
                    cell, [alarm.region for alarm in public]),
                edit)
        return InstallSafeRegion(
            cell_ref=pack_cell_ref(cell_id.col, cell_id.row), bitmap=bitmap)


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
            assert client.bitmap is not None
            walk = client.bitmap.walk
            send = self.session.send
            user_id = client.user_id
            sequence = client.sequence
            min_x, min_y = cell.min_x, cell.min_y
            max_x, max_y = cell.max_x, cell.max_y
            times, xs, ys = trace.times, trace.xs, trace.ys
            headings, speeds = trace.headings, trace.speeds
            probes = ops = 0
            reply: ServerReply = ()
            while index < stop:
                x, y = xs[index], ys[index]
                if not (min_x <= x <= max_x and min_y <= y <= max_y):
                    break  # left the cell: not a probe of the bitmap
                inside, levels, block = walk(x, y)
                block_min_x, block_min_y, block_max_x, block_max_y = block
                # Every fix in the block walks to the same cell: one
                # rectangle test each, charged the walk's levels.
                entered = index
                index += 1
                while (index < stop
                       and block_min_x <= xs[index] < block_max_x
                       and block_min_y <= ys[index] < block_max_y):
                    index += 1
                if not inside:
                    # Unsafe area: a plain report per fix.  The server
                    # re-ships the bitmap only when a firing changed it
                    # (the quick update), and that reply ends the run.
                    for fix in range(entered, index):
                        reply = send(LocationReport(
                            user_id, sequence, Point(xs[fix], ys[fix]),
                            headings[fix], speeds[fix]), times[fix])
                        sequence += 1
                        if reply:
                            index = fix + 1
                            break
                probes += index - entered
                ops += (index - entered) * levels
                if reply:
                    break
            client.sequence = sequence
            self._charge_probe(ops, probes)
            if reply:
                self._install(client, times[index - 1], reply)
                return index
            if index == stop:
                return stop

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
                client.bitmap = message.bitmap
                self._mark_region_installed(client, time_s)
