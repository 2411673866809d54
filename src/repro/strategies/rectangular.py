"""Distributed processing with rectangular safe regions (MWPSR).

The server computes a maximum (weighted) perimeter rectangular safe
region for the client's current grid cell and ships it as an
:class:`~repro.protocol.messages.InstallSafeRegion`; the client monitors
its own position against the rectangle (one comparison per fix) and
contacts the server only when it exits — a
:class:`~repro.protocol.messages.RegionExitReport`, which is what tells
the server policy to renew rather than merely evaluate.  Because the
rectangle's interior excludes every pending relevant alarm region, the
first sample inside any alarm region is necessarily outside the safe
region — the client reports at exactly that sample, so accuracy is 100%
with on-time triggers.

Heading for the motion-weighted perimeter can come from either side of
the protocol (``heading_source``): ``"client"`` ships the device's own
heading in the location report (GPS chipsets provide it); ``"server"``
derives it from the two most recent reported positions — exactly the
``l_s(t')`` to ``l_s(t)`` construction of the paper's Fig. 1(a) — and
needs nothing beyond the position fix.  The reported-position history
is server-side state and lives in the run's
:class:`~repro.engine.server.AlarmServer` scratch space, never on the
policy object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..geometry import Point, Rect
from ..mobility import Trace
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import (InstallSafeRegion, Request, Response,
                                 ServerReply)
from ..saferegion import MWPSRComputer, RectangularSafeRegion
from .base import ClientState, ProcessingStrategy

if TYPE_CHECKING:
    from ..alarms import SpatialAlarm
    from ..engine.server import AlarmServer


class RectangularPolicy(ServerPolicy):
    """Server half of MWPSR: a fresh rectangle per region-exit report."""

    #: ``AlarmServer.scratch`` key of the per-user last-reported
    #: positions (server-side heading estimation).
    SCRATCH_KEY = "rect.last_reported"

    def __init__(self, computer: MWPSRComputer,
                 heading_source: str = "client") -> None:
        self.computer = computer
        self.heading_source = heading_source

    def on_region_exit(self, server: "AlarmServer", request: Request,
                       time_s: float,
                       triggered: Sequence["SpatialAlarm"]
                       ) -> Tuple[Response, ...]:
        heading = self._heading_for(server, request)
        with server.timed_saferegion(request.user_id, time_s):
            cell = server.current_cell(request.position)
            pending = server.pending_alarms_in(request.user_id, cell)
            result = self.computer.compute(request.position, heading, cell,
                                           [alarm.region
                                            for alarm in pending])
        return (InstallSafeRegion(rect=result.rect),)

    def _heading_for(self, server: "AlarmServer",
                     request: Request) -> float:
        """Heading per the configured source.

        Server-side estimation uses the previous *reported* position
        (Fig. 1(a)); the first report of a client, having no history,
        falls back to the device heading carried in the report.
        """
        if self.heading_source == "client":
            return request.heading
        last_reported: Dict[int, Point] = server.scratch.setdefault(
            self.SCRATCH_KEY, {})
        previous = last_reported.get(request.user_id)
        last_reported[request.user_id] = request.position
        if previous is None or previous == request.position:
            return request.heading
        return previous.heading_to(request.position)


class RectangularSafeRegionStrategy(ProcessingStrategy):
    """Safe region-based processing with MWPSR rectangles.

    ``computer`` selects the variant: weighted (steady-motion model) or
    non-weighted (uniform model), greedy or exhaustive.
    """

    def __init__(self, computer: Optional[MWPSRComputer] = None,
                 name: str = "MWPSR",
                 heading_source: str = "client") -> None:
        if heading_source not in ("client", "server"):
            raise ValueError("heading_source must be 'client' or 'server'")
        self.computer = computer if computer is not None else MWPSRComputer()
        self.name = name
        self.heading_source = heading_source

    def server_policy(self) -> RectangularPolicy:
        return RectangularPolicy(self.computer, self.heading_source)

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        index = start
        region = client.safe_region
        if region is not None:
            # This strategy only ever installs rectangular regions: one
            # closed rectangle comparison per fix.
            assert isinstance(region, RectangularSafeRegion)
            rect = region.rect
            min_x, min_y = rect.min_x, rect.min_y
            max_x, max_y = rect.max_x, rect.max_y
            xs, ys = trace.xs, trace.ys
            while (index < stop and min_x <= xs[index] <= max_x
                   and min_y <= ys[index] <= max_y):
                index += 1
            probes = index - start + (index < stop)  # the failing one too
            self._charge_probe(probes, probes)
            if index == stop:
                return stop
            self._note_region_exit(client, trace.times[index])

        reply = self._send_report(client, trace, index, exit=True)
        self._install(client, trace, index, reply)
        return index + 1

    def _install(self, client: ClientState, trace: Trace, index: int,
                 reply: ServerReply) -> None:
        for message in reply:
            if isinstance(message, InstallSafeRegion):
                self._install_rectangle(client, trace.times[index], message)

    def _install_rectangle(self, client: ClientState, time_s: float,
                           message: InstallSafeRegion) -> Rect:
        """Hold the shipped rectangle (returned); it is its own footprint.

        Tighter than the cell and still sound under a mutating world: a
        region that does not closed-intersect the rectangle cannot fire
        inside it, and the client reports the moment it leaves.
        """
        assert message.rect is not None
        client.safe_region = RectangularSafeRegion(message.rect)
        client.footprint = message.rect
        self._mark_region_installed(client, time_s)
        return message.rect
