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

The Prometheus renderer reuses
:func:`~repro.telemetry.export.render_registry_prom` and
:func:`~repro.telemetry.export.render_metrics_prom`, so a live scrape
and a recorded trace of the same registry and ``Metrics`` totals render
byte-identically — the exporter conformance test pins this.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..protocol.transport import TransportError
from ..telemetry.export import render_metrics_prom, render_registry_prom
from ..telemetry.metrics import Histogram, MetricsRegistry
from .sockets import SocketTransport


@dataclass
class StatsSnapshot:
    """One scraped daemon snapshot plus the scrape's own round trip."""

    raw: Dict[str, object]
    scrape_rtt_us: float

    def _section(self, name: str) -> Dict[str, object]:
        section = self.raw.get(name)
        return dict(section) if isinstance(section, dict) else {}

    def metrics(self) -> Dict[str, object]:
        """The engine's ``Metrics.counters()`` totals at scrape time."""
        return self._section("metrics")

    def live(self) -> Dict[str, object]:
        """Live readings: the number of open connections."""
        return self._section("live")

    def serving(self) -> Dict[str, object]:
        """Serving configuration: ``batch_max`` and the protocol version."""
        return self._section("serving")

    def registry(self) -> MetricsRegistry:
        """The daemon's telemetry registry, rebuilt from the snapshot.

        Empty when the daemon runs without telemetry — the live and
        metrics sections are always populated regardless.
        """
        payload = self.raw.get("registry")
        if not isinstance(payload, dict) or not payload:
            return MetricsRegistry()
        return MetricsRegistry.from_dict(payload)


def scrape_stats(*, path: Optional[str] = None, host: str = "127.0.0.1",
                 port: int = 0, timeout_s: float = 10.0) -> StatsSnapshot:
    """One STATS exchange with a running daemon.

    ``path`` selects a Unix-domain socket (else TCP ``host:port``); the
    exchange is :meth:`SocketTransport.stats
    <repro.net.sockets.SocketTransport.stats>` on a fresh connection.
    Every failure — refused connection, timeout, ERROR frame, an
    undecodable snapshot, bytes after it — surfaces as
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
    return StatsSnapshot(raw=snapshot, scrape_rtt_us=rtt_us)


# ----------------------------------------------------------------------
# Snapshot renderers (repro stats)
# ----------------------------------------------------------------------
def render_stats_text(snapshot: StatsSnapshot) -> str:
    """The human one-shot scrape: live gauges, counters, registry."""
    lines: List[str] = []
    lines.append("daemon stats  (scrape rtt %.0f us)"
                 % snapshot.scrape_rtt_us)
    lines.append("=" * 60)
    live = snapshot.live()
    serving = snapshot.serving()
    lines.append("connections open:   %s" % live.get("connections_open", 0))
    lines.append("serving:            batch_max=%s protocol=v%s"
                 % (serving.get("batch_max", "?"),
                    serving.get("protocol_version", "?")))
    metrics = snapshot.metrics()
    if metrics:
        lines.append("")
        lines.append("engine counters")
        lines.append("-" * 60)
        for name in sorted(metrics):
            lines.append("  %-28s %12s" % (name, metrics[name]))
    registry = snapshot.registry()
    names = registry.names()
    if names:
        lines.append("")
        lines.append("telemetry registry")
        lines.append("-" * 60)
        for name in names:
            instrument = registry.get(name)
            if isinstance(instrument, Histogram):
                lines.append(
                    "  %-28s count=%d p50=%.0f p99=%.0f max=%s"
                    % (name, instrument.count,
                       histogram_percentile(instrument, 0.50),
                       histogram_percentile(instrument, 0.99),
                       instrument.max))
            else:
                lines.append("  %-28s %12s"
                             % (name, getattr(instrument, "value", "?")))
    return "\n".join(lines)


def render_stats_json(snapshot: StatsSnapshot) -> str:
    """Machine-readable scrape: the raw snapshot plus scrape RTT."""
    payload = dict(snapshot.raw)
    payload["scrape_rtt_us"] = round(snapshot.scrape_rtt_us, 1)
    return json.dumps(payload, indent=2, sort_keys=True)


def render_stats_prom(snapshot: StatsSnapshot) -> str:
    """Prometheus exposition of a live scrape.

    Registry instruments and the engine's ``Metrics`` counts render
    through the shared :func:`~repro.telemetry.export.render_registry_prom`
    and :func:`~repro.telemetry.export.render_metrics_prom` (byte-equal
    to the trace exporter's rendering of the same run); the live gauge
    of open connections follows with a ``repro_live_`` prefix.
    """
    lines = render_registry_prom(snapshot.registry())
    lines.extend(render_metrics_prom(snapshot.metrics()))
    lines.append("# TYPE repro_live_connections_open gauge")
    lines.append("repro_live_connections_open %s"
                 % snapshot.live().get("connections_open", 0))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def histogram_percentile(histogram: Histogram, q: float) -> float:
    """Estimate the ``q``-quantile from a histogram's bucket counts.

    Linear interpolation within the bucket the quantile falls in, its
    edges clamped to the observed minimum and maximum (no sample lies
    outside them, so a histogram of equal samples reads their value at
    every quantile); a quantile landing in the overflow bucket reports
    the observed maximum.  Exact percentiles need the raw samples —
    this is the scrape-side estimate ``repro top`` displays.
    """
    minimum, maximum = histogram.min, histogram.max
    if histogram.count <= 0 or minimum is None or maximum is None:
        return 0.0
    rank = q * histogram.count
    cumulative = 0.0
    lower = minimum
    for bound, count in zip(histogram.buckets, histogram.bucket_counts):
        if count and cumulative + count >= rank:
            fraction = (rank - cumulative) / count
            return float(lower + (min(bound, maximum) - lower) * fraction)
        cumulative += count
        lower = max(bound, minimum)
    return float(maximum)


def _rate(current: Mapping[str, object], previous: Mapping[str, object],
          key: str, interval_s: float) -> float:
    if interval_s <= 0:
        return 0.0
    now = current.get(key, 0)
    before = previous.get(key, 0)
    if not isinstance(now, (int, float)) \
            or not isinstance(before, (int, float)):
        return 0.0
    return max(0.0, (now - before) / interval_s)


def render_top(snapshot: StatsSnapshot,
               previous: Optional[StatsSnapshot] = None,
               interval_s: float = 1.0) -> str:
    """One ``repro top`` screen: live gauges, rates and latency.

    Rates are deltas against the ``previous`` scrape over
    ``interval_s`` (zero on the first screen).  Pure rendering — the
    polling loop, the sleep and the screen clearing live in the CLI.
    """
    live = snapshot.live()
    metrics = snapshot.metrics()
    prev_metrics = previous.metrics() if previous is not None else {}
    lines: List[str] = []
    lines.append("repro top — scrape rtt %6.0f us" % snapshot.scrape_rtt_us)
    lines.append("=" * 60)
    lines.append("connections %-6s (batch %s)"
                 % (live.get("connections_open", 0),
                    snapshot.serving().get("batch_max", "?")))
    lines.append("uplinks   %10s  (%8.1f/s)"
                 % (metrics.get("uplink_messages", 0),
                    _rate(metrics, prev_metrics, "uplink_messages",
                          interval_s)))
    lines.append("downlinks %10s  (%8.1f/s)"
                 % (metrics.get("downlink_messages", 0),
                    _rate(metrics, prev_metrics, "downlink_messages",
                          interval_s)))
    lines.append("alarms    %10s  (%8.1f/s)"
                 % (metrics.get("trigger_notifications", 0),
                    _rate(metrics, prev_metrics, "trigger_notifications",
                          interval_s)))
    registry = snapshot.registry()
    # Outermost first, so a slow round trip reads down to the stage that
    # took it (docs/OBSERVABILITY.md says what nests in what).
    for name in ("net_rtt_us", "net_batch_handle_us", "report_cost_us",
                 "trigger_eval_cost_us", "saferegion_compute_cost_us",
                 "index_lookup_cost_us", "downlink_sizing_cost_us"):
        instrument = registry.get(name)
        if isinstance(instrument, Histogram) and instrument.count:
            lines.append("%-26s p50 %8.0f us   p99 %8.0f us   (n=%d)"
                         % (name,
                            histogram_percentile(instrument, 0.50),
                            histogram_percentile(instrument, 0.99),
                            instrument.count))
    return "\n".join(lines)
