"""The optimal approach (OPT) — the paper's resource-unconstrained bound.

The server pushes *all* pending relevant alarms of the client's current
grid cell (an :class:`~repro.protocol.messages.InstallAlarmList`); the
client then evaluates its own position against the full list on every
fix.  The client contacts the server only when it crosses into a new
grid cell (a :class:`RegionExitReport` — it needs the new alarm set) or
when an alarm actually triggers locally (a plain
:class:`LocationReport` — the server must record and propagate the
firing; the reply's in-band :class:`AlarmNotification` messages tell the
client which alarms to retire from its local list) — "transmit updates
only when the spatial constraints for one or more relevant alarms are
met".

OPT transmits the fewest client-to-server messages of all approaches but
pays for it twice: the downstream push of whole alarm sets dominates
bandwidth (Fig. 6(b)), and evaluating every alarm on every fix dominates
client energy (Fig. 6(c)) — it "is based on the assumption that clients
have very high capacity".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

from ..mobility import Trace
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import (AlarmNotification, AlarmRecord,
                                 InstallAlarmList, Request, Response)
from .base import ClientState, ProcessingStrategy

if TYPE_CHECKING:
    from ..alarms import SpatialAlarm
    from ..engine.server import AlarmServer


class OptimalPolicy(ServerPolicy):
    """Server half of OPT: push the cell's alarm set on every exit."""

    def on_region_exit(self, server: "AlarmServer", request: Request,
                       time_s: float,
                       triggered: Sequence["SpatialAlarm"]
                       ) -> Tuple[Response, ...]:
        # OPT's "safe-region computation" is pure alarm-list assembly:
        # the index lookup is all of it.
        with server.timed_saferegion(request.user_id, time_s):
            cell = server.current_cell(request.position)
            pending = server.pending_alarms_in(request.user_id, cell)
        return (InstallAlarmList(
            cell=cell,
            alarms=tuple(AlarmRecord(alarm_id=alarm.alarm_id,
                                     region=alarm.region)
                         for alarm in pending)),)


class OptimalStrategy(ProcessingStrategy):
    """Full client-side knowledge of the current cell's alarms."""

    name = "OPT"

    def server_policy(self) -> OptimalPolicy:
        return OptimalPolicy()

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        cell = client.footprint
        if cell is None:
            return self._refresh_cell(client, trace, start)

        # Local evaluation: one comparison for the cell bound plus one per
        # locally-held alarm region, on every fix inside the cell.
        min_x, min_y = cell.min_x, cell.min_y
        max_x, max_y = cell.max_x, cell.max_y
        boxes = [(record.region.min_x, record.region.min_y,
                  record.region.max_x, record.region.max_y)
                 for record in client.local_alarms]
        xs, ys = trace.xs, trace.ys
        index = start
        entered = False
        while index < stop:
            x, y = xs[index], ys[index]
            if not (min_x <= x <= max_x and min_y <= y <= max_y):
                break  # left the cell: nothing evaluated, nothing charged
            for box_min_x, box_min_y, box_max_x, box_max_y in boxes:
                if box_min_x < x < box_max_x and box_min_y < y < box_max_y:
                    entered = True
                    break
            if entered:
                break
            index += 1
        evaluated = index - start + entered
        self._charge_probe(evaluated * (1 + len(boxes)), evaluated)
        if index == stop:
            return stop
        if not entered:
            return self._refresh_cell(client, trace, index)

        # A trigger occurred: report it so the server fires the alarms;
        # the in-band notifications name the alarms to retire locally.
        reply = self._send_report(client, trace, index)
        fired_ids = {message.alarm_id for message in reply
                     if isinstance(message, AlarmNotification)}
        client.local_alarms = [record for record in client.local_alarms
                               if record.alarm_id not in fired_ids]
        return index + 1

    # ------------------------------------------------------------------
    def _refresh_cell(self, client: ClientState, trace: Trace,
                      index: int) -> int:
        """Cell crossing: report, fetch the new cell's alarm set."""
        # Leaving the previous cell ends its alarm set's residency.
        time_s = trace.times[index]
        self._note_region_exit(client, time_s)
        reply = self._send_report(client, trace, index, exit=True)
        for message in reply:
            if isinstance(message, InstallAlarmList):
                client.footprint = message.cell
                client.local_alarms = list(message.alarms)
                self._mark_region_installed(client, time_s)
        return index + 1
