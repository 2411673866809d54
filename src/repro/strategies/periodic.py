"""Periodic evaluation (PRD) — the naive server-centric baseline.

Every position fix is sent to the server and evaluated against the alarm
index.  Trivially accurate (the evaluation frequency equals the trace
frequency, so no alarm can be missed) and trivially non-scalable: the
paper's full-scale workload produces about 60 million location messages
per one-hour trace, every one of them processed by the server.

The server half is the shared evaluate-only policy: every reply carries
at most the in-band alarm notifications, never an install message.
"""

from __future__ import annotations

from ..mobility import Trace
from .base import ClientState, ProcessingStrategy


class PeriodicStrategy(ProcessingStrategy):
    """Send every fix; the server evaluates every fix."""

    name = "PRD"

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        # No fix is silent: the run is always empty.
        self._send_report(client, trace, start)
        return start + 1
