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

from typing import Optional

from ..mobility import TraceSample
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

    def on_sample(self, client: ClientState, sample: TraceSample) -> None:
        if client.safe_region is not None and sample.time < client.expiry:
            return  # provably still inside; not even a probe is needed

        if client.safe_region is not None:
            region = client.safe_region
            inside, ops = region.probe(sample.position)
            self._charge_probe(ops)
            if inside:
                # This strategy only ever installs rectangular regions.
                assert isinstance(region, RectangularSafeRegion)
                # schedule the next probe by the distance to the boundary
                slack = region.rect.boundary_distance(sample.position)
                client.expiry = sample.time + slack / self.max_speed
                return
            self._note_region_exit(client, sample.time)

        reply = self._send_report(client, sample, exit=True)
        self._install(client, sample, reply)

    def _install(self, client: ClientState, sample: TraceSample,
                 reply: ServerReply) -> None:
        for message in reply:
            if isinstance(message, InstallSafeRegion):
                rect = self._install_rectangle(client, sample, message)
                client.expiry = sample.time + (
                    rect.boundary_distance(sample.position)
                    / self.max_speed)
