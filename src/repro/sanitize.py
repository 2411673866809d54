"""Runtime invariant sanitizer: cheap checks a simulation can carry.

The static checker (:mod:`repro.analysis`, ``repro check``) proves
what it can see; the sanitizer guards the residue at runtime.
Enabled via ``repro simulate --sanitize`` or ``REPRO_SANITIZE=1``, it
installs five invariant checks at simulation start:

* **frozen geometry** — the alarm registry's regions are snapshotted
  at run start and compared at run end; any in-place mutation (however
  it got past the frozen geometry types) raises, and so does an alarm
  index that fails :meth:`~repro.index.RStarTree.validate` (a point
  query's cached x-slab table that no longer matches its node, say);
* **monotone simulation clock** — each client's samples must carry
  non-decreasing timestamps (the silence-period contract assumes it);
* **wire fidelity** — the default transport is replaced by the
  verifying in-process transport, which encodes every downlink and
  asserts ``size_of_response(m) == len(encode_response(m))``;
* **shared regions** — every bitmap the server hands out of its
  public-alarm memo (:mod:`repro.saferegion.cache`) is rebuilt from the
  subscriber's own pending alarms and compared bit for bit: sharing
  must never leak another user's region or outlive an alarm's move;
* **merge associativity** — the parallel engine's merged metrics are
  recomputed under a different fold order and compared, spot-checking
  the :meth:`~repro.engine.metrics.Metrics.merged` contract.

A sanitized :class:`~repro.net.daemon.AlarmDaemon` and its socket
clients carry four more:

* **framed accounting** — each frame carries exactly the bytes the
  transport charged (:meth:`~Sanitizer.check_frame`);
* **event-loop stall monitor** (PA005's runtime half) — a watchdog task
  measures how late periodic sleeps wake; a delay past
  :data:`LOOP_STALL_THRESHOLD_S` fails the run at ``aclose()``;
* **task-leak check** — after ``aclose()`` cancels and gathers every
  tracked task, any daemon-owned task still pending is a spawn that
  escaped the registry, and raises (the guard that retired the static
  task-lifecycle rule);
* **span-balance ledger** (the tracing layer's mirror) — every span
  the transports and the daemon open is noted, every close must match
  an open, and ``check_span_balance`` at transport/daemon close raises
  on any span opened but never closed (the leak class the fault
  injection suite pins).

The session automaton needs no sanitizer check: the daemon's reader
decides every frame by a lookup in
:data:`repro.protocol.spec.CLIENT_TRANSITIONS`, on or off.

Off by default and free when off: the engines hold the shared
:data:`DISABLED` singleton and guard every site with one
``sanitizer.enabled`` attribute test — the same pattern (and the same
benchmark ceiling) as the disabled telemetry facade.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # typing only: keeps this module import-light
    from .alarms import AlarmRegistry
    from .engine.metrics import Metrics
    from .protocol.messages import Response
    from .protocol.wire import WireCodec
    from .saferegion.bitmap import BitmapSafeRegion

#: Environment variable consulted when no explicit flag is passed;
#: any value other than empty or ``"0"`` enables the sanitizer.
SANITIZE_ENV = "REPRO_SANITIZE"

#: One alarm's geometry, flattened for snapshot comparison.
_GeometryRow = Tuple[int, float, float, float, float]

#: A watchdog sleep waking this much late (seconds) means some
#: callback or coroutine step blocked the event loop — the runtime
#: shadow of the PA005 static contract.  Generous on purpose: CI boxes
#: jitter, but a blocking socket read or ``time.sleep`` blows well
#: past half a second.
LOOP_STALL_THRESHOLD_S = 0.5

#: How often the daemon's watchdog samples loop responsiveness.
LOOP_WATCHDOG_INTERVAL_S = 0.05


class SanitizerError(AssertionError):
    """A runtime invariant the sanitizer guards was violated."""


class Sanitizer:
    """Invariant checker attached to one simulation run.

    Construct one per run (clock state is per-run); obtain the
    appropriate instance with :meth:`resolve`, which returns the
    zero-overhead :data:`DISABLED` singleton when the flag (or the
    environment) says off.
    """

    __slots__ = ("_clocks", "_geometry", "_worst_lag", "_open_spans")

    enabled = True

    def __init__(self) -> None:
        self._clocks: Dict[int, float] = {}
        self._geometry: Optional[Tuple[_GeometryRow, ...]] = None
        self._worst_lag = 0.0
        self._open_spans: Set[Tuple[int, int]] = set()

    @staticmethod
    def resolve(flag: Optional[bool] = None) -> "Sanitizer":
        """The sanitizer a run should carry.

        ``True``/``False`` are explicit; ``None`` consults
        :data:`SANITIZE_ENV` once.  Disabled runs share
        :data:`DISABLED` — no allocation, no state.
        """
        if flag is None:
            flag = os.environ.get(SANITIZE_ENV, "") not in ("", "0")
        return Sanitizer() if flag else DISABLED

    # -- checks --------------------------------------------------------
    def check_clock(self, user_id: int, time_s: float) -> None:
        """Assert per-client sample timestamps never go backwards."""
        last = self._clocks.get(user_id)
        if last is not None and time_s < last:
            raise SanitizerError(
                "simulation clock of client %d went backwards: "
                "%.6f after %.6f" % (user_id, time_s, last))
        self._clocks[user_id] = time_s

    def _rows(self, registry: "AlarmRegistry"
              ) -> Tuple[_GeometryRow, ...]:
        return tuple(sorted(
            (alarm.alarm_id, alarm.region.min_x, alarm.region.min_y,
             alarm.region.max_x, alarm.region.max_y)
            for alarm in registry.all_alarms()))

    def snapshot_geometry(self, registry: "AlarmRegistry") -> None:
        """Record the registry's alarm regions at run start."""
        self._geometry = self._rows(registry)

    def verify_geometry(self, registry: "AlarmRegistry") -> None:
        """Assert the registry's regions are unchanged since snapshot.

        Legitimate churn (the dynamic/tracking engines) goes through
        the registry's install/remove/relocate API — those runs do not
        carry the static-geometry check, so a difference here means an
        in-place mutation of a frozen geometry value.  Unchanged regions
        are then held to the index's own invariants, the x-slab tables
        the run's point queries cached included.
        """
        if self._geometry is None:
            return
        current = self._rows(registry)
        if current != self._geometry:
            raise SanitizerError(
                "alarm geometry changed during the run: %d region(s) "
                "differ from the start-of-run snapshot"
                % sum(1 for before, after
                      in zip(self._geometry, current) if before != after))
        try:
            registry.tree.validate()
        except AssertionError as error:
            raise SanitizerError("alarm index invalid at run end: %s"
                                 % error) from error

    def check_wire(self, codec: "WireCodec",
                   message: "Response") -> None:
        """Assert a message's accounted size matches its encoding."""
        size = codec.size_of_response(message)
        encoded = codec.encode_response(message)
        if size != len(encoded):
            raise SanitizerError(
                "wire accounting drift: size_of_response says %d bytes "
                "(%d bits) but encode_response produced %d bytes"
                % (size, 8 * size, len(encoded)))

    def check_shared_region(self, user_id: int, key: object,
                            shared: "BitmapSafeRegion",
                            own: "BitmapSafeRegion") -> None:
        """Assert a memoised region is the one the subscriber is owed.

        ``shared`` came out of the server's public-alarm memo; ``own``
        was built afresh from this subscriber's pending alarms.  A
        difference means the memo leaked another user's region or kept
        one past a removal or relocation that staled it.
        """
        if shared.bitmap.to_bitstring() != own.bitmap.to_bitstring():
            raise SanitizerError(
                "shared safe region %r handed to client %d differs from "
                "a fresh build over its own pending alarms"
                % (key, user_id))

    def check_frame(self, direction: str, payload_bytes: int,
                    charged_bytes: int) -> None:
        """Assert a socket frame carries exactly the bytes charged.

        The framed network path extends the wire-fidelity contract one
        layer out: an uplink frame's payload is the codec encoding the
        transport charged, and a reply frame's sized entries sum to the
        downlink bytes charged for that exchange.  The envelope (frame
        headers, batch tags, in-band notifications) is free by design
        and excluded from ``payload_bytes`` by the caller.
        """
        if payload_bytes != charged_bytes:
            raise SanitizerError(
                "framed %s accounting drift: frame carries %d charged "
                "byte(s) but the transport charged %d"
                % (direction, payload_bytes, charged_bytes))

    def note_loop_lag(self, lag_s: float) -> None:
        """Record one watchdog wakeup delay (worst value is kept)."""
        if lag_s > self._worst_lag:
            self._worst_lag = lag_s

    def check_loop_health(self) -> None:
        """Assert no callback stalled the event loop past threshold.

        The daemon's watchdog task measures how late periodic
        ``asyncio.sleep`` wakeups arrive; a wakeup delayed past
        :data:`LOOP_STALL_THRESHOLD_S` means some callback held the
        loop that long — the runtime counterpart of the PA005
        blocking-call-in-async contract.
        """
        if self._worst_lag > LOOP_STALL_THRESHOLD_S:
            raise SanitizerError(
                "event loop stalled for %.3fs (threshold %.3fs): a "
                "callback or coroutine blocked the loop instead of "
                "awaiting or deferring to an executor"
                % (self._worst_lag, LOOP_STALL_THRESHOLD_S))

    def check_task_leaks(self, pending: Sequence[str]) -> None:
        """Assert the daemon is not abandoning live tasks at close.

        ``pending`` names the daemon-owned tasks still unfinished
        after ``aclose()`` cancelled and gathered everything it
        tracks (a non-empty list means a spawn escaped the registry:
        a dropped ``create_task`` handle, a task never cancelled).
        """
        if pending:
            raise SanitizerError(
                "task leak at daemon close: %d daemon task(s) still "
                "pending: %s" % (len(pending),
                                 ", ".join(sorted(pending))))

    def note_span_open(self, trace_id: int, span_id: int) -> None:
        """Record one span opening (duplicate opens raise)."""
        key = (trace_id, span_id)
        if key in self._open_spans:
            raise SanitizerError(
                "span (trace %d, span %d) opened twice without closing"
                % (trace_id, span_id))
        self._open_spans.add(key)

    def note_span_close(self, trace_id: int, span_id: int) -> None:
        """Record one span closing (a close without an open raises)."""
        key = (trace_id, span_id)
        if key not in self._open_spans:
            raise SanitizerError(
                "span (trace %d, span %d) closed but was never opened"
                % (trace_id, span_id))
        self._open_spans.discard(key)

    def check_span_balance(self) -> None:
        """Assert every noted span was closed (run at endpoint close).

        The runtime mirror of ``repro trace validate``'s span
        well-formedness check: a span opened around a request that then
        failed — a dropped frame, a timeout, a dead peer — must still
        close (with an error status), or the trace's span ledger is
        unbalanced and latency accounting silently loses the worst
        (failed) exchanges.
        """
        if self._open_spans:
            leaked = ", ".join(
                "(trace %d, span %d)" % key
                for key in sorted(self._open_spans)[:5])
            raise SanitizerError(
                "span leak: %d span(s) opened but never closed: %s"
                % (len(self._open_spans), leaked))

    def check_merge(self, parts: Sequence["Metrics"],
                    merged: "Metrics") -> None:
        """Spot-check the metrics merge: fold order must not matter."""
        if len(parts) < 2:
            return
        from .engine.metrics import Metrics

        refolded = Metrics.merged(list(reversed(list(parts))))
        if refolded.counters() != merged.counters():
            raise SanitizerError(
                "metrics merge is not associative: reversed fold "
                "disagrees with shard-order fold")
        if (sorted((e.time, e.user_id, e.alarm_id)
                   for e in refolded.triggers)
                != sorted((e.time, e.user_id, e.alarm_id)
                          for e in merged.triggers)):
            raise SanitizerError(
                "metrics merge lost or duplicated trigger events "
                "under a reversed fold order")


class _DisabledSanitizer(Sanitizer):
    """Shared no-op sanitizer: one attribute check per guarded site."""

    __slots__ = ()

    enabled = False

    def check_clock(self, user_id: int, time_s: float) -> None:
        return

    def snapshot_geometry(self, registry: "AlarmRegistry") -> None:
        return

    def verify_geometry(self, registry: "AlarmRegistry") -> None:
        return

    def check_wire(self, codec: "WireCodec",
                   message: "Response") -> None:
        return

    def check_shared_region(self, user_id: int, key: object,
                            shared: "BitmapSafeRegion",
                            own: "BitmapSafeRegion") -> None:
        return

    def check_frame(self, direction: str, payload_bytes: int,
                    charged_bytes: int) -> None:
        return

    def note_loop_lag(self, lag_s: float) -> None:
        return

    def check_loop_health(self) -> None:
        return

    def check_task_leaks(self, pending: Sequence[str]) -> None:
        return

    def note_span_open(self, trace_id: int, span_id: int) -> None:
        return

    def note_span_close(self, trace_id: int, span_id: int) -> None:
        return

    def check_span_balance(self) -> None:
        return

    def check_merge(self, parts: Sequence["Metrics"],
                    merged: "Metrics") -> None:
        return


#: The shared disabled sanitizer (the only instance untraced runs see).
DISABLED = _DisabledSanitizer()
