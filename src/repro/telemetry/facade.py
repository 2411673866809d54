"""The single telemetry facade the engine and strategies talk to.

Design rule: **disabled telemetry costs one attribute check.**  Every
instrumented hot path reads ``telemetry.enabled`` and skips the emit
entirely when it is false — no record dict is built, no argument is
evaluated beyond the guard, no sink or registry is touched.  The
sharded engine's differential guarantee therefore extends to telemetry:
an untraced run executes the exact pre-telemetry instruction stream
plus one boolean test per instrumented site (the microbench guard in
``benchmarks/test_telemetry_overhead.py`` enforces the ceiling).

An enabled facade bundles the three telemetry concerns:

* the typed event records it builds and writes to a pluggable
  :class:`~repro.telemetry.sinks.TraceSink`, each stamped with the
  facade's ``shard`` index;
* the :class:`~repro.telemetry.metrics.MetricsRegistry` of counters
  and histograms, merged across shards like ``Metrics.merged``;
* the optional :class:`~repro.telemetry.manifest.RunManifest` written
  as the trace's provenance header.

An enabled facade runs in one of two capture modes, fixed by its
constructor: :meth:`Telemetry.metrics_only` holds no sink (``events``
is false: the registry is fed, no event record is built), and
:meth:`Telemetry.capture` holds one and writes a full trace.  ``repro
simulate`` without ``--trace``, ``--profile`` and the figure harness
run metrics-only; a sharded run tells its workers which mode to
capture in (``ShardJob.trace``), so a metrics-only worker ships back
its registry and no events.

The typed emitters below are the only callers of :meth:`Telemetry.emit`
and the only place events and their derived instruments are produced.
Both vocabularies are declared elsewhere and enforced where they are
used: ``emit`` refuses a type missing from ``EVENT_FIELDS``, and the
registry refuses a name missing from ``INSTRUMENTS``, whose entries
also carry each instrument's kind, flag and buckets.  Each quantity is
written once: a count the figures report lives in the engine's
``Metrics`` and nowhere in the registry, which holds what ``Metrics``
has no field for —
distributions, wall time per server stage (the ``*_cost_us``
histograms), and counters with no ``Metrics`` twin.  ``repro report``
cross-checks the routes a run reaches it by: the event stream, the
registry merge and the ``Metrics`` merge (see
:func:`~repro.telemetry.export.reconcile`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .events import (EVENT_ALARM_FIRED, EVENT_DOWNLINK_SENT, EVENT_FIELDS,
                     EVENT_LOCATION_REPORT, EVENT_NET_BATCH,
                     EVENT_NET_CONN_CLOSE, EVENT_NET_CONN_OPEN,
                     EVENT_SAFEREGION_COMPUTED, EVENT_SAFEREGION_EXIT,
                     EVENT_SHARD_FINISHED, EVENT_SHARD_STARTED, EVENT_SPAN,
                     EVENT_TRANSPORT_DROP, RECORD_EVENT, RECORD_SUMMARY)
from .manifest import RunManifest
from .metrics import Ledger, MetricsRegistry, TelemetryError
from .sinks import ListSink, TraceSink
from .spans import STAGE_HISTOGRAMS


class Telemetry:
    """Facade over event records, metrics registry and run manifest."""

    __slots__ = ("enabled", "events", "sink", "shard", "registry",
                 "manifest")

    def __init__(self, sink: Optional[TraceSink], registry: MetricsRegistry,
                 manifest: Optional[RunManifest] = None,
                 enabled: bool = True, shard: int = 0) -> None:
        if shard < 0:
            raise ValueError("shard index must be non-negative")
        self.enabled = enabled
        # Metrics-only capture: a facade without a sink builds no record.
        self.events = enabled and sink is not None
        self.sink = sink
        self.shard = shard
        self.registry = registry
        self.manifest = manifest
        # No lock: the network engine's client thread and the daemon's
        # loop thread share this facade, but each instrument has one
        # writer (the client: net_rtt_us, saferegion_exits and
        # saferegion_residence_s; the daemon: the rest), and JsonlSink
        # serializes its own writes.

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, sink: Optional[TraceSink] = None, shard: int = 0,
                manifest: Optional[RunManifest] = None) -> "Telemetry":
        """A full trace into ``sink`` (default: an in-memory buffer)."""
        return cls(sink if sink is not None else ListSink(),
                   MetricsRegistry(), manifest=manifest, shard=shard)

    @classmethod
    def metrics_only(cls) -> "Telemetry":
        """An enabled facade that feeds its registry and builds no event."""
        return cls(None, MetricsRegistry())

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A no-op facade (every emit returns at the ``enabled`` check)."""
        return cls(None, MetricsRegistry(), enabled=False)

    def emit(self, event_type: str, time_s: float,
             user_id: Optional[int] = None, **fields: object) -> None:
        """Write one event record at simulation time ``time_s``.

        Called by the typed emitters below, and only when ``events``
        is true.  ``event_type`` must be declared in
        :data:`~repro.telemetry.events.EVENT_FIELDS`, or
        :class:`TelemetryError` is raised.  ``fields`` must match its
        schema; that is checked offline, by ``repro trace validate``
        and the test suite, not on the hot path.  Timestamps are
        simulation-clock seconds supplied by the caller, never read
        from the host clock.
        """
        if event_type not in EVENT_FIELDS:
            raise TelemetryError("undeclared event type %r" % event_type)
        sink = self.sink
        assert sink is not None, "a metrics-only facade emits no event"
        record: Dict[str, object] = {"record": RECORD_EVENT,
                                     "type": event_type, "t": time_s,
                                     "shard": self.shard}
        if user_id is not None:
            record["user"] = user_id
        record.update(fields)
        sink.write_record(record)

    # ------------------------------------------------------------------
    # Typed emitters: one event + its derived instruments per call.
    # Each begins with the enabled guard so an unguarded call site is
    # merely slower, never wrong; hot paths guard at the call site too
    # so argument expressions are never evaluated when disabled.
    # ------------------------------------------------------------------
    def location_report(self, time_s: float, user_id: int, nbytes: int,
                        cost_us: float) -> None:
        """A client location report reached the server."""
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_LOCATION_REPORT, time_s, user_id,
                      nbytes=nbytes, cost_us=cost_us)
        self.registry.histogram("report_cost_us").observe(cost_us)

    def alarm_fired(self, time_s: float, user_id: int,
                    alarm_id: int) -> None:
        """An alarm fired (one-shot) for a subscriber."""
        if not self.events:
            return
        self.emit(EVENT_ALARM_FIRED, time_s, user_id, alarm=alarm_id)

    def saferegion_computed(self, time_s: float, user_id: int,
                            elapsed_us: float) -> None:
        """The server produced one safe region (or safe period)."""
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_SAFEREGION_COMPUTED, time_s, user_id,
                      elapsed_us=elapsed_us)
        self.registry.histogram("saferegion_compute_cost_us").observe(
            elapsed_us)

    def saferegion_exit(self, time_s: float, user_id: int,
                        residence_s: float) -> None:
        """A client left its safe region (or its safe period expired)."""
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_SAFEREGION_EXIT, time_s, user_id,
                      residence_s=residence_s)
        registry = self.registry
        registry.counter("saferegion_exits").inc()
        registry.histogram("saferegion_residence_s").observe(residence_s)

    def downlink_sent(self, time_s: float, user_id: int, nbytes: int,
                      kind: str, sizing_us: float) -> None:
        """The server shipped a payload to a client.

        ``sizing_us`` is the wall time the transport spent sizing (and,
        with ``verify_wire``, encoding) the payload it charged.
        """
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_DOWNLINK_SENT, time_s, user_id,
                      nbytes=nbytes, kind=kind)
        registry = self.registry
        registry.counter("downlink_messages_" + kind).inc()
        registry.histogram("downlink_payload_bits").observe(nbytes * 8)
        registry.histogram("downlink_sizing_cost_us").observe(sizing_us)

    def transport_drop(self, time_s: float, user_id: int,
                       direction: str) -> None:
        """A simulated lossy transport dropped one delivery attempt.

        ``direction`` is ``"uplink"`` or ``"downlink"``.  The dropped
        attempt was still charged (its ``location_report`` /
        ``downlink_sent`` event fired at send time), so these events
        count *next to* the traffic events rather than replacing them —
        matching the ``Metrics`` drop fields they reconcile against.
        """
        if not self.events:
            return
        self.emit(EVENT_TRANSPORT_DROP, time_s, user_id, direction=direction)

    def saferegion_cache(self, hit: bool) -> None:
        """The shared safe-region memo answered (or missed) one lookup.

        Registry-only, with no ``Metrics`` twin.  Not deterministic in
        the cross-engine sense: each shard fills a memo of its own, so
        a sharded run misses where the serial run hit.  What both agree
        on is regions *served* (``Metrics.safe_region_computations``).
        """
        if not self.enabled:
            return
        self.registry.counter("saferegion_cache_hits" if hit
                              else "saferegion_cache_misses").inc()

    def trigger_eval(self, cost_us: float) -> None:
        """The server evaluated one location report's triggers.

        Registry-only: the ``location_report`` event of the same uplink
        already carries the enclosing ``cost_us``.
        """
        if not self.enabled:
            return
        self.registry.histogram("trigger_eval_cost_us").observe(cost_us)

    def index_lookup(self, cost_us: float,
                     fanout: Optional[int] = None) -> None:
        """One alarm-index lookup on behalf of a safe region.

        A range lookup returned ``fanout`` pending alarms; a
        nearest-distance lookup has none.  Registry-only.
        """
        if not self.enabled:
            return
        registry = self.registry
        registry.histogram("index_lookup_cost_us").observe(cost_us)
        if fanout is not None:
            registry.histogram("index_fanout").observe(fanout)

    def net_conn_open(self, conn_id: int) -> None:
        """A socket client connected to the serving daemon.

        ``t`` is pinned to 0.0 like the shard events: connection
        arrival is wall-clock phenomenon, not simulation time, and the
        trace must stay free of host timestamps.
        """
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_NET_CONN_OPEN, 0.0, conn=conn_id)
        self.registry.counter("net_connections_opened").inc()

    def net_conn_close(self, conn_id: int, clean: bool,
                       requests: int) -> None:
        """A daemon connection ended after serving ``requests`` uplinks.

        ``clean`` is false when the peer vanished mid-frame or broke
        the framing contract — the fault-injection suite asserts the
        daemon survives and records exactly this.
        """
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_NET_CONN_CLOSE, 0.0, conn=conn_id,
                      clean=clean, requests=requests)
        self.registry.counter("net_connections_closed").inc()

    def net_batch(self, time_s: float, conn_id: int, requests: int,
                  handle_us: float) -> None:
        """The daemon made one coalesced write of ``requests`` REPLY frames.

        ``time_s`` is the simulation timestamp of the first request
        answered (the envelope clock); ``handle_us`` is the wall-clock
        latency probe from that request's decode to the write's drain,
        the one sanctioned host-time measurement on the serving path.
        """
        if not self.enabled:
            return
        if self.events:
            self.emit(EVENT_NET_BATCH, time_s, conn=conn_id, requests=requests)
        registry = self.registry
        registry.counter("net_batches").inc()
        registry.histogram("net_batch_size").observe(requests)
        registry.histogram("net_batch_handle_us").observe(handle_us)

    def span(self, time_s: float, trace_id: int, span_id: int,
             parent_id: int, name: str, status: str,
             elapsed_us: float) -> None:
        """A traced operation finished with ``status`` ``"ok"``/``"error"``.

        Called once per span, when it ends (its writer calls it in a
        ``finally``), so a failed exchange leaves its record too.
        ``trace_id`` groups every span of one request's journey;
        ``parent_id`` is 0 for a root (client) span and the client's
        span id for a server stage.  ``elapsed_us`` is a wall-clock
        duration probe (perf-counter delta, the same sanction as
        ``net_batch``'s ``handle_us``).  A server stage's time feeds its
        ``*_cost_us`` histogram whether or not the request was traced;
        the record is written only for a traced request (``trace_id``
        non-zero) — :func:`~repro.telemetry.spans.validate_spans`
        checks the records' trees.
        """
        if not self.enabled:
            return
        if self.events and trace_id:
            self.emit(EVENT_SPAN, time_s, trace=trace_id, span=span_id,
                      parent=parent_id, name=name, status=status,
                      elapsed_us=elapsed_us)
        histogram = STAGE_HISTOGRAMS.get(name)
        if histogram is not None:
            self.registry.histogram(histogram).observe(elapsed_us)

    def net_rtt(self, rtt_us: float) -> None:
        """One framed request-reply round trip took ``rtt_us``.

        Registry-only, like :meth:`index_lookup`: the client-side
        latency histogram feeds ``repro report``, and a per-request
        event would dwarf the rest of the trace at load-test rates.
        """
        if not self.enabled:
            return
        self.registry.histogram("net_rtt_us").observe(rtt_us)

    def shard_started(self, vehicles: int) -> None:
        """A shard began its replay (``t`` pinned to simulation zero)."""
        if not self.events:
            return
        self.emit(EVENT_SHARD_STARTED, 0.0, vehicles=vehicles)

    def shard_finished(self, vehicles: int, wall_s: float) -> None:
        """A shard completed its replay after ``wall_s`` real seconds."""
        if not self.events:
            return
        self.emit(EVENT_SHARD_FINISHED, 0.0, vehicles=vehicles, wall_s=wall_s)

    # ------------------------------------------------------------------
    # Trace life cycle
    # ------------------------------------------------------------------
    def write_manifest(self) -> None:
        """Write the provenance header (first record of a trace)."""
        if not self.events or self.manifest is None:
            return
        assert self.sink is not None
        self.sink.write_record(self.manifest.to_record())

    def write_summary(self, metrics_counters: Mapping[str, float],
                      triggers: int, wall_time_s: float,
                      workers: int) -> None:
        """Write the trailing summary record.

        ``metrics_counters`` is ``Metrics.counters()`` — the engine's
        own deterministic totals, written with the registry as one
        :class:`~repro.telemetry.metrics.Ledger` next to the event stream
        so ``repro report`` can reconcile them without re-running
        anything.
        """
        if not self.events:
            return
        assert self.sink is not None
        self.sink.write_record({
            "record": RECORD_SUMMARY,
            **Ledger(metrics_counters, self.registry).to_payload(),
            "triggers": triggers,
            "wall_time_s": wall_time_s,
            "workers": workers,
        })

    # ------------------------------------------------------------------
    # Shard reduction (the parallel engine's telemetry merge step)
    # ------------------------------------------------------------------
    def absorb_shard(self, events: Sequence[Mapping[str, object]],
                     registry_payload: Optional[
                         Dict[str, Dict[str, object]]]) -> None:
        """Fold one shard's buffered telemetry into this facade.

        Event records pass through verbatim (they already carry their
        shard index); the shard's serialized registry merges through
        the associative instrument merge, mirroring ``Metrics.merged``.
        """
        if not self.enabled:
            return
        if self.sink is not None:
            for record in events:
                self.sink.write_record(record)
        if registry_payload is not None:
            self.registry.merge(MetricsRegistry.from_dict(registry_payload))

    def drain_events(self) -> List[Mapping[str, object]]:
        """Drain a buffering sink (shard workers ship these back)."""
        if isinstance(self.sink, ListSink):
            return self.sink.drain()
        return []

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


#: The shared no-op facade.  Engine components default to this instead
#: of ``Optional[Telemetry]`` so hot paths need no ``is None`` test —
#: the ``enabled`` attribute check *is* the disabled fast path.
DISABLED = Telemetry.disabled()
