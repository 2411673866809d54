"""Adaptive containment scheduling for rectangular safe regions.

The plain rectangular strategy probes the safe region on every position
fix.  But a client 900 m from every edge of its region, capped at
30 m/s, provably cannot exit for 30 s — probing meanwhile is wasted
energy.  This extension (in the spirit of the paper's "fast containment
check" requirement, Section 2.1) applies the safe-period idea *inside*
the client: after a probe finds the client at distance ``d`` from the
region boundary, the next probe is scheduled ``d / v_max`` seconds out.

Accuracy is unharmed, by the same induction as the safe-period
baseline: no sample before the scheduled probe can lie outside the
region, every alarm region is outside the region, so the first sample
that could trigger an alarm is at or after a scheduled probe — and
probes chain forward until they land on it.

The server half is the plain :class:`RectangularPolicy` — adaptivity is
purely a client-side scheduling decision, which the protocol split
makes literal: the server cannot tell the two strategies apart.

The energy ablation benchmark measures the probe reduction; the test
suite asserts the accuracy contract is intact.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..geometry import Point
from ..mobility import Trace
from ..protocol.messages import InstallSafeRegion, ServerReply
from ..saferegion import MWPSRComputer, RectangularSafeRegion
from .base import ClientState
from .rectangular import RectangularSafeRegionStrategy


class AdaptiveRectangularStrategy(RectangularSafeRegionStrategy):
    """MWPSR processing with self-scheduled containment probes.

    ``max_speed`` bounds the client's own velocity (a device knows its
    vehicle class; the system-wide cap is always sound).  The strategy
    reuses :class:`ClientState.expiry` as the next scheduled probe time.
    """

    def __init__(self, max_speed: float,
                 computer: Optional[MWPSRComputer] = None,
                 name: str = "MWPSR-adaptive") -> None:
        super().__init__(computer, name=name)
        if max_speed <= 0:
            raise ValueError("max_speed must be positive")
        self.max_speed = max_speed

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        index = start
        region = client.safe_region
        if region is not None:
            # This strategy only ever installs rectangular regions.
            assert isinstance(region, RectangularSafeRegion)
            rect = region.rect
            min_x, min_y = rect.min_x, rect.min_y
            max_x, max_y = rect.max_x, rect.max_y
            times, xs, ys = trace.times, trace.xs, trace.ys
            probes = 0
            while True:
                # provably still inside until the scheduled probe: not
                # even a probe is needed
                index = bisect_left(times, client.expiry, index, stop)
                if index == stop:
                    self._charge_probe(probes, probes)
                    return stop
                x, y = xs[index], ys[index]
                probes += 1
                if not (min_x <= x <= max_x and min_y <= y <= max_y):
                    break
                # schedule the next probe by the distance to the boundary
                slack = min(x - min_x, max_x - x, y - min_y, max_y - y)
                client.expiry = times[index] + slack / self.max_speed
                index += 1
            self._charge_probe(probes, probes)
            self._note_region_exit(client, times[index])

        reply = self._send_report(client, trace, index, exit=True)
        self._install(client, trace, index, reply)
        return index + 1

    def _install(self, client: ClientState, trace: Trace, index: int,
                 reply: ServerReply) -> None:
        time_s = trace.times[index]
        for message in reply:
            if isinstance(message, InstallSafeRegion):
                rect = self._install_rectangle(client, time_s, message)
                client.expiry = time_s + (
                    rect.boundary_distance(Point(trace.xs[index],
                                                 trace.ys[index]))
                    / self.max_speed)
