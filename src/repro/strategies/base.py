"""Processing-strategy interface.

A *strategy* is one of the paper's alarm-processing approaches, split
along the paper's own client/server line: the strategy object is the
**client half** (how long the device stays silent along its trace, and
what it says when it speaks), and its
:meth:`ProcessingStrategy.server_policy` supplies the
**server half** (a :class:`~repro.protocol.handlers.ServerPolicy` that
computes safe regions, safe periods or alarm lists in response to
requests).  The two halves communicate exclusively through the typed
protocol messages of :mod:`repro.protocol.messages`, carried by the
:class:`~repro.protocol.transport.ClientSession` the engine attaches —
never by sharing Python state — so any transport (in-process, lossy)
can sit between them and the byte accounting at the transport boundary
covers everything they exchange.

Strategies must uphold the accuracy contract: every ground-truth trigger
is delivered, at the sample where it occurs (verified by the engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..geometry import Point, Rect
from ..mobility import Trace
from ..protocol.handlers import EVALUATE_ONLY, ServerPolicy
from ..protocol.messages import (AlarmRecord, LocationReport,
                                 RegionExitReport, ServerReply)

if TYPE_CHECKING:
    from ..protocol.transport import ClientSession
    from ..saferegion.bitmap import PyramidBitmap


class ClientState:
    """Per-vehicle client-side state.

    Strategies stash whatever the mobile device would hold — the current
    safe region, a safe-period expiry, a local alarm list — on this
    object; the attributes below cover all built-in strategies.
    """

    __slots__ = ("user_id", "sequence", "bitmap", "footprint",
                 "expiry", "local_alarms", "region_installed_at")

    def __init__(self, user_id: int) -> None:
        self.user_id = user_id
        # Uplink sequence number; increments per report sent.
        self.sequence: int = 0
        # The installed GBSR/PBSR bitmap; its base cell is the footprint.
        self.bitmap: Optional[PyramidBitmap] = None
        # The area the installed state answers for (MWPSR: the shipped
        # rectangle, which is also the whole region it monitors;
        # bitmap/OPT: the base cell).  A mutating world invalidates the
        # client only when a change touches it.
        self.footprint: Optional[Rect] = None
        self.expiry: float = float("-inf")  # safe-period strategy
        self.local_alarms: List[AlarmRecord] = []  # optimal strategy
        # Simulation time the current safe region (or safe period, or
        # OPT alarm set) began its residency; None between residencies.
        # Telemetry-only: drives the saferegion_exit residence metric.
        self.region_installed_at: Optional[float] = None

    def __repr__(self) -> str:
        return "ClientState(user_id=%d)" % self.user_id


class ProcessingStrategy:
    """Client half of an alarm-processing approach."""

    #: Short identifier used in reports ("PRD", "SP", "MWPSR", ...).
    name: str = "?"

    def server_policy(self) -> ServerPolicy:
        """The server half this strategy needs behind the transport.

        The default is the shared evaluate-only policy: the server
        answers reports with nothing but alarm notifications (the
        periodic baseline).  Strategies that install monitoring state
        return their own policy object, constructed per call so each
        run (and each shard) gets an independent instance.
        """
        return EVALUATE_ONLY

    def attach(self, session: "ClientSession") -> None:
        """Bind the client half to the run's session before any sample.

        The engines call :func:`repro.protocol.connect`, which builds
        the policy and transport and then attaches the session here.
        """
        self.session = session

    def advance(self, client: ClientState, trace: Trace, start: int,
                stop: int) -> int:
        """Take ``client`` along fixes ``[start, stop)`` of its trace, up
        to and including the first whose reply it must act on.

        A client stops at the first fix whose reply can change what it
        does on a later fix — a report that may bring back an install
        message — and returns the index after it; ``stop`` when no fix
        of the window has one.  The fixes before it are *silent*, where
        the paper's client would neither send nor change state (the fix
        lies in the installed rectangle or in a safe cell of the
        installed bitmap, precedes the timer's expiry, or enters none
        of the locally held alarms), or are reports whose replies carry
        nothing to act on: a periodic (PRD) client acts on no reply, so
        it reports every fix of the window in one call, and a bitmap
        client reports every fix of an unsafe area in one call, up to
        the reply that re-ships its bitmap (an alarm fired).  The method
        scans the trace's columns over the run, charges the run's
        containment probes — those of the probe that ended it included
        — in one :meth:`_charge_probe` call, with the sums its fixes
        would have charged one by one, then acts on the fix that ended
        the run (a report, whatever its reply installs).  The result
        does not depend on how the caller windows the trace.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _send_report(self, client: ClientState, trace: Trace, index: int,
                     exit: bool = False) -> ServerReply:
        """One uplink exchange for fix ``index``; returns the typed replies.

        ``exit=True`` sends a :class:`RegionExitReport` (the client's
        installed state ended), telling the server policy to renew
        monitoring state rather than merely evaluate.
        """
        request_type = RegionExitReport if exit else LocationReport
        request = request_type(user_id=client.user_id,
                               sequence=client.sequence,
                               position=Point(trace.xs[index],
                                              trace.ys[index]),
                               heading=trace.headings[index],
                               speed=trace.speeds[index])
        client.sequence += 1
        return self.session.send(request, trace.times[index])

    def _mark_region_installed(self, client: ClientState,
                               time_s: float) -> None:
        """Start a residency clock unless one is already running.

        A quick-update re-ship (bitmap fired path) replaces the region
        without the client ever leaving it, so the original residency
        keeps running; only a ship after an exit starts a new clock.
        """
        if client.region_installed_at is None:
            client.region_installed_at = time_s

    def _note_region_exit(self, client: ClientState,
                          time_s: float) -> None:
        """End the client's residency; emit ``saferegion_exit`` if traced."""
        installed_at = client.region_installed_at
        if installed_at is None:
            return
        client.region_installed_at = None
        telemetry = self.session.telemetry
        if telemetry.enabled:
            telemetry.saferegion_exit(time_s, client.user_id,
                                      time_s - installed_at)

    def _charge_probe(self, ops: int, checks: int = 1) -> None:
        """Account ``checks`` containment checks of ``ops`` comparisons
        in all (nothing for a run of none)."""
        if checks:
            self.session.charge_probe(ops, checks)
