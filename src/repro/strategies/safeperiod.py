"""Safe period-based evaluation (SP) — the server-centric baseline of
Bamba et al., HiPC 2008 (reference [3] of the paper).

On every region-exit report (the previous period expired) the server
computes a *safe period*: a lower bound on the time before the
subscriber could possibly enter any pending relevant alarm region, and
ships it as an :class:`~repro.protocol.messages.InstallSafePeriod`.  The
client stays silent until the period expires.  The bound must be
pessimistic to guarantee zero misses — the distance to the nearest
pending alarm region divided by the maximum speed any subscriber can
attain — which is exactly why SP sends the paper's observed 2-3x more
messages than the safe-region approaches: near alarms the pessimistic
period collapses to (almost) zero and the client effectively reverts to
periodic reporting.

No-miss argument: at report time ``t`` the nearest pending alarm is at
distance ``d``, so the subscriber cannot be inside any alarm region
before ``t + d/v_max``; the client reports again at the first sample at
or after that instant, and by induction a report lands on every sample
at which a trigger occurs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence, Tuple

from ..mobility import Trace
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import InstallSafePeriod, Request, Response
from .base import ClientState, ProcessingStrategy

if TYPE_CHECKING:
    from ..alarms import SpatialAlarm
    from ..engine.server import AlarmServer


class SafePeriodPolicy(ServerPolicy):
    """Server half of SP: answer every exit report with a fresh period."""

    def __init__(self, max_speed: float) -> None:
        self.max_speed = max_speed

    def on_region_exit(self, server: "AlarmServer", request: Request,
                       time_s: float,
                       triggered: Sequence["SpatialAlarm"]
                       ) -> Tuple[Response, ...]:
        with server.timed_saferegion(request.user_id, time_s):
            distance = server.pending_nearest_distance(request.user_id,
                                                       request.position)
            if math.isinf(distance):
                expiry = math.inf
            else:
                expiry = time_s + distance / self.max_speed
        return (InstallSafePeriod(expiry=expiry),)


class SafePeriodStrategy(ProcessingStrategy):
    """Safe-period processing with a system-wide maximum-speed bound."""

    name = "SP"

    def __init__(self, max_speed: float) -> None:
        if max_speed <= 0:
            raise ValueError("max_speed must be positive")
        self.max_speed = max_speed

    def server_policy(self) -> SafePeriodPolicy:
        return SafePeriodPolicy(self.max_speed)

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        # The client's only work while waiting is a timer comparison a
        # fix; the silent fixes are those before the expiry.
        index = bisect_left(trace.times, client.expiry, start, stop)
        probes = index - start + (index < stop)  # the one that expired too
        self._charge_probe(probes, probes)
        if index == stop:
            return stop
        time_s = trace.times[index]
        self._note_region_exit(client, time_s)

        reply = self._send_report(client, trace, index, exit=True)
        for message in reply:
            if isinstance(message, InstallSafePeriod):
                client.expiry = message.expiry
                self._mark_region_installed(client, time_s)
        return index + 1
