"""Live daemon introspection: the STATS scrape client and renderers.

``repro stats`` and ``repro top`` talk to a running
:class:`~repro.net.daemon.AlarmDaemon` over its operator STATS channel:
one HELLO, one STATS request frame, one STATS reply frame carrying the
daemon's canonical JSON snapshot (see
:meth:`~repro.net.daemon.AlarmDaemon.stats_snapshot`), spoken by the
one framed client, :class:`~repro.net.sockets.SocketTransport`.  Everything in
this module is either that one-exchange scrape (:func:`scrape_stats`)
or a pure snapshot-to-string renderer — importable engine code, so no
printing here (RL007) and no host wall clock (RL006; the scrape RTT is
a ``perf_counter`` delta).

A snapshot's ``{metrics, registry}`` sections are one
:class:`~repro.telemetry.metrics.Ledger`, parsed once per scrape and
rendered by the trace exporter's
:func:`~repro.telemetry.export.render_ledger_prom` and
:func:`~repro.telemetry.export.render_ledger_text`, so a live scrape and
a recorded trace of the same ledger render alike — the exporter
conformance test pins the Prometheus bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..protocol.transport import TransportError
from ..telemetry.export import render_ledger_prom, render_ledger_text
from ..telemetry.metrics import (Histogram, Ledger, TelemetryError,
                                 payload_object)
from .sockets import SocketTransport


@dataclass
class StatsSnapshot:
    """One scraped daemon snapshot plus the scrape's own round trip.

    Parsed once, here: the ledger (its registry is empty when the daemon
    runs without telemetry), the live gauge and the serving config.  A
    malformed snapshot raises
    :class:`~repro.telemetry.metrics.TelemetryError`.
    """

    raw: Dict[str, object]
    scrape_rtt_us: float
    ledger: Ledger = field(init=False)
    #: Open connections at snapshot time, the scraper's own included.
    connections_open: object = field(init=False)
    batch_max: object = field(init=False)
    protocol_version: object = field(init=False)

    def __post_init__(self) -> None:
        self.ledger = Ledger.from_payload(self.raw)
        live = payload_object(self.raw, "live")
        serving = payload_object(self.raw, "serving")
        self.connections_open = live.get("connections_open", 0)
        self.batch_max = serving.get("batch_max", "?")
        self.protocol_version = serving.get("protocol_version", "?")


def scrape_stats(*, path: Optional[str] = None, host: str = "127.0.0.1",
                 port: int = 0, timeout_s: float = 10.0) -> StatsSnapshot:
    """One STATS exchange with a running daemon.

    ``path`` selects a Unix-domain socket (else TCP ``host:port``); the
    exchange is :meth:`SocketTransport.stats
    <repro.net.sockets.SocketTransport.stats>` on a fresh connection.
    Every failure — refused connection, timeout, ERROR frame, an
    undecodable or malformed snapshot, bytes after it — surfaces as
    :class:`~repro.protocol.transport.TransportError`, never a hang.
    """
    try:
        transport = (
            SocketTransport.connect_unix(path, timeout_s=timeout_s)
            if path is not None
            else SocketTransport.connect_tcp(host, port,
                                             timeout_s=timeout_s))
    except OSError as exc:
        raise TransportError("stats scrape failed: %s" % exc) from exc
    with transport:
        started = time.perf_counter()
        snapshot = transport.stats()
        rtt_us = (time.perf_counter() - started) * 1e6
    try:
        return StatsSnapshot(raw=snapshot, scrape_rtt_us=rtt_us)
    except TelemetryError as exc:
        raise TransportError("malformed STATS snapshot: %s" % exc) from exc


# ----------------------------------------------------------------------
# Snapshot renderers (repro stats)
# ----------------------------------------------------------------------
def render_stats_text(snapshot: StatsSnapshot) -> str:
    """The human one-shot scrape: live gauges, then the ledger."""
    lines = ["daemon stats  (scrape rtt %.0f us)" % snapshot.scrape_rtt_us,
             "=" * 60,
             "connections open:   %s" % snapshot.connections_open,
             "serving:            batch_max=%s protocol=v%s"
             % (snapshot.batch_max, snapshot.protocol_version)]
    lines.extend(render_ledger_text(snapshot.ledger))
    return "\n".join(lines)


def render_stats_json(snapshot: StatsSnapshot) -> str:
    """Machine-readable scrape: the raw snapshot plus scrape RTT."""
    payload = dict(snapshot.raw)
    payload["scrape_rtt_us"] = round(snapshot.scrape_rtt_us, 1)
    return json.dumps(payload, indent=2, sort_keys=True)


def render_stats_prom(snapshot: StatsSnapshot) -> str:
    """Prometheus exposition of a live scrape.

    The ledger renders through the trace exporter's
    :func:`~repro.telemetry.export.render_ledger_prom` (byte-equal to its
    rendering of the same run); the live gauge of open connections
    follows with a ``repro_live_`` prefix.
    """
    lines = render_ledger_prom(snapshot.ledger)
    lines.append("# TYPE repro_live_connections_open gauge")
    lines.append("repro_live_connections_open %s" % snapshot.connections_open)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def render_top(snapshot: StatsSnapshot,
               previous: Optional[StatsSnapshot] = None,
               interval_s: float = 1.0) -> str:
    """One ``repro top`` screen: live gauges, rates and latency.

    Rates are deltas against the ``previous`` scrape over
    ``interval_s`` (zero on the first screen).  Pure rendering — the
    polling loop, the sleep and the screen clearing live in the CLI.
    """
    metrics = snapshot.ledger.counters
    lines = ["repro top — scrape rtt %6.0f us" % snapshot.scrape_rtt_us,
             "=" * 60,
             "connections %-6s (batch %s)"
             % (snapshot.connections_open, snapshot.batch_max)]
    for label, key in (("uplinks", "uplink_messages"),
                       ("downlinks", "downlink_messages"),
                       ("alarms", "trigger_notifications")):
        rate = 0.0
        if previous is not None and interval_s > 0:
            rate = max(0.0, (metrics.get(key, 0)
                             - previous.ledger.counters.get(key, 0))
                       / interval_s)
        lines.append("%-9s %10s  (%8.1f/s)"
                     % (label, metrics.get(key, 0), rate))
    registry = snapshot.ledger.registry
    # Outermost first, so a slow round trip reads down to the stage that
    # took it (docs/OBSERVABILITY.md says what nests in what).
    for name in ("net_rtt_us", "net_batch_handle_us", "decode_cost_us",
                 "handle_cost_us", "report_cost_us",
                 "trigger_eval_cost_us", "saferegion_compute_cost_us",
                 "index_lookup_cost_us", "downlink_sizing_cost_us",
                 "reply_encode_cost_us"):
        instrument = registry.get(name)
        if isinstance(instrument, Histogram) and instrument.count:
            lines.append("%-26s p50 %8.0f us   p99 %8.0f us   (n=%d)"
                         % (name, instrument.percentile(0.50),
                            instrument.percentile(0.99), instrument.count))
    return "\n".join(lines)
