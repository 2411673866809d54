"""Periodic evaluation (PRD) — the naive server-centric baseline.

Every position fix is sent to the server and evaluated against the alarm
index.  Trivially accurate (the evaluation frequency equals the trace
frequency, so no alarm can be missed) and trivially non-scalable: the
paper's full-scale workload produces about 60 million location messages
per one-hour trace, every one of them processed by the server.

The server half is the shared evaluate-only policy: every reply carries
at most the in-band alarm notifications, never an install message, so
the client acts on no reply and reports its whole window in one call.
"""

from __future__ import annotations

from ..geometry import Point
from ..mobility import Trace
from ..protocol.messages import LocationReport
from .base import ClientState, ProcessingStrategy


class PeriodicStrategy(ProcessingStrategy):
    """Send every fix; the server evaluates every fix."""

    name = "PRD"

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        # No fix is silent and no reply is acted on: one report per fix,
        # in trace order, numbered on from the client's sequence.
        send = self.session.send
        user_id = client.user_id
        sequence = client.sequence
        times, xs, ys = trace.times, trace.xs, trace.ys
        headings, speeds = trace.headings, trace.speeds
        for index in range(start, stop):
            send(LocationReport(user_id, sequence,
                                Point(xs[index], ys[index]),
                                headings[index], speeds[index]),
                 times[index])
            sequence += 1
        client.sequence = sequence
        return stop
