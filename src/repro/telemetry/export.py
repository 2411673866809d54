"""Trace readers and exporters: text dashboard, JSON, Prometheus.

``repro report`` renders a recorded trace through these functions;
``repro trace`` slices the raw event stream.  Everything here is
read-side and pure — input is the JSONL trace a run produced, output is
a string — so exporters are trivially testable and adding a format
never touches the engine.

The *reconciliation* check is the load-bearing piece: a trace's event
stream, its telemetry registry and the engine's own ``Metrics`` totals
(stored in the summary record) reach the report by three routes — the
sink, the registry merge and the ``Metrics`` merge — and
:func:`reconcile` asserts that wherever two of them witnessed the same
thing they agree: the cross-check that catches a dropped shard, a
missed emit site or a broken merge before anyone trusts a dashboard
built on the trace.  No quantity is written twice to be compared with
itself: a count the figures report lives in ``Metrics`` only.
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .events import (EVENT_FIELDS, EVENT_SPAN_CLOSE, EVENT_SPAN_OPEN,
                     EVENT_TRANSPORT_DROP, EVENT_TYPES, RECORD_EVENT,
                     RECORD_MANIFEST, RECORD_SUMMARY, validate_event)
from .manifest import RunManifest
from .metrics import INSTRUMENTS, Counter, Histogram, Ledger
from .sinks import read_jsonl
from .spans import (SPAN_CLIENT_REQUEST, SPAN_DECODE, SPAN_HANDLE,
                    SPAN_REPLY_ENCODE, STATUS_OK, span_close_counts,
                    validate_spans)

#: Event-count reconciliation pairs: (event type, Metrics field).
RECONCILE_EVENTS = (
    ("location_report", "uplink_messages"),
    ("downlink_sent", "downlink_messages"),
    ("alarm_fired", "trigger_notifications"),
    ("saferegion_computed", "safe_region_computations"),
)

#: ``transport_drop`` events by ``direction`` vs the ``Metrics`` drop
#: field of that direction: (direction, Metrics field).
RECONCILE_DROPS = (
    ("uplink", "uplink_drops"),
    ("downlink", "downlink_drops"),
)

#: Registry-vs-event reconciliation pairs: (registry counter, event
#: type), from the declared witnesses.  For counters with no ``Metrics``
#: twin the event stream is the only independent witness — the counter
#: must equal the number of events of that type.
RECONCILE_REGISTRY_EVENTS: Tuple[Tuple[str, str], ...] = tuple(
    (name, spec.witness) for name, spec in INSTRUMENTS.items()
    if spec.witness is not None and spec.witness in EVENT_FIELDS)

#: Prefix-sum reconciliation pairs: (registry counter prefix, Metrics
#: field), from the declared witnesses.  A counter family
#: ``<field>_<member>`` (one counter per downlink kind) must sum to the
#: aggregate the engine counted.
RECONCILE_PREFIX_SUMS: Tuple[Tuple[str, str], ...] = tuple(sorted(
    {(spec.witness + "_", spec.witness) for spec in INSTRUMENTS.values()
     if spec.witness is not None and spec.witness not in EVENT_FIELDS}))


@dataclass
class TraceData:
    """One parsed trace: provenance header, events, trailing summary.

    The summary's ledger is parsed once, here (empty without a summary);
    a malformed one raises :class:`~repro.telemetry.metrics.TelemetryError`.
    """

    manifest: Optional[RunManifest]
    events: List[Dict[str, object]]
    summary: Optional[Dict[str, object]]
    ledger: Ledger = field(init=False)

    def __post_init__(self) -> None:
        self.ledger = (Ledger() if self.summary is None
                       else Ledger.from_payload(self.summary))


def read_trace(path: Union[str, Path]) -> TraceData:
    """Parse a JSONL trace file into its three record kinds."""
    manifest: Optional[RunManifest] = None
    events: List[Dict[str, object]] = []
    summary: Optional[Dict[str, object]] = None
    for record in read_jsonl(path):
        kind = record.get("record")
        if kind == RECORD_MANIFEST:
            manifest = RunManifest.from_record(record)
        elif kind == RECORD_EVENT:
            events.append(record)
        elif kind == RECORD_SUMMARY:
            summary = record
    return TraceData(manifest=manifest, events=events, summary=summary)


def event_counts(events: Sequence[Mapping[str, object]]) -> Dict[str, int]:
    """``{event type: occurrence count}`` over an event stream."""
    counts: Dict[str, int] = {}
    for record in events:
        event_type = record.get("type")
        if isinstance(event_type, str):
            counts[event_type] = counts.get(event_type, 0) + 1
    return counts


def validate_trace(data: TraceData) -> List[str]:
    """Structural problems of a trace (empty list when valid)."""
    problems: List[str] = []
    if data.manifest is None:
        problems.append("trace has no manifest header record")
    if data.summary is None:
        problems.append("trace has no trailing summary record")
    for index, record in enumerate(data.events):
        for problem in validate_event(record):
            problems.append("event %d: %s" % (index, problem))
    problems.extend(validate_spans(data.events))
    return problems


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def reconcile(data: TraceData) -> Dict[str, object]:
    """Cross-check the event stream, the registry and ``Metrics``.

    Returns ``{"ok": bool, "checks": [{name, expected, actual, ok}]}``.
    Every check sets two of the three against each other where they
    witnessed the same thing by different routes; exact equality is the
    contract (both sides are integer counts of the same protocol
    events).
    """
    metrics = data.ledger.counters
    registry = data.ledger.registry
    counts = event_counts(data.events)
    checks: List[Dict[str, object]] = []

    def check(name: str, expected: object, actual: object) -> None:
        checks.append({"name": name, "expected": expected,
                       "actual": actual, "ok": expected == actual})

    for event_type, metrics_field in RECONCILE_EVENTS:
        check("events.%s == metrics.%s" % (event_type, metrics_field),
              metrics.get(metrics_field, 0), counts.get(event_type, 0))
    drops = collections.Counter(
        record.get("direction") for record in data.events
        if record.get("type") == EVENT_TRANSPORT_DROP)
    for direction, metrics_field in RECONCILE_DROPS:
        check("events.%s[%s] == metrics.%s"
              % (EVENT_TRANSPORT_DROP, direction, metrics_field),
              metrics.get(metrics_field, 0), drops[direction])
    for counter_name, event_type in RECONCILE_REGISTRY_EVENTS:
        instrument = registry.get(counter_name)
        value = instrument.value if isinstance(instrument, Counter) else 0
        check("registry.%s == events.%s" % (counter_name, event_type),
              counts.get(event_type, 0), value)
    for prefix, metrics_field in RECONCILE_PREFIX_SUMS:
        total = sum(instrument.value
                    for instrument in (registry.get(name)
                                       for name in registry.names()
                                       if name.startswith(prefix))
                    if isinstance(instrument, Counter))
        check("sum(registry.%s*) == metrics.%s" % (prefix, metrics_field),
              metrics.get(metrics_field, 0), total)

    # Span-vs-instrument cross-checks.  All hold exactly for every
    # trace kind — untraced runs compare 0 == 0.
    span_counts = span_close_counts(data.events)
    check("events.span_open == events.span_close",
          counts.get(EVENT_SPAN_OPEN, 0), counts.get(EVENT_SPAN_CLOSE, 0))
    # Every successful framed round trip observed exactly one RTT
    # sample (the histogram is fed after a decoded reply, just before
    # the ok close — failed exchanges close "error" and observe none).
    rtt = registry.get("net_rtt_us")
    check("spans.client_request[ok] == registry.net_rtt_us.count",
          span_counts.get((SPAN_CLIENT_REQUEST, STATUS_OK), 0),
          rtt.count if isinstance(rtt, Histogram) else 0)
    # The serving pipeline is lock-step per handled request: one
    # decode and one reply encode each.
    handled = span_counts.get((SPAN_HANDLE, STATUS_OK), 0)
    for stage in (SPAN_DECODE, SPAN_REPLY_ENCODE):
        check("spans.%s[ok] == spans.handle[ok]" % stage,
              handled, span_counts.get((stage, STATUS_OK), 0))
    return {"ok": all(bool(entry["ok"]) for entry in checks),
            "checks": checks}


# ----------------------------------------------------------------------
# Event slicing (repro trace tail/filter)
# ----------------------------------------------------------------------
def filter_events(events: Sequence[Dict[str, object]],
                  types: Optional[Sequence[str]] = None,
                  user_id: Optional[int] = None,
                  shard: Optional[int] = None,
                  limit: Optional[int] = None) -> List[Dict[str, object]]:
    """Slice an event stream by type, user and shard; cap the length.

    ``limit`` keeps the *last* N matches (tail semantics — recent
    events are what debugging wants).
    """
    selected = [
        record for record in events
        if (types is None or record.get("type") in types)
        and (user_id is None or record.get("user") == user_id)
        and (shard is None or record.get("shard") == shard)]
    if limit is not None and limit >= 0:
        selected = selected[len(selected) - min(limit, len(selected)):]
    return selected


def render_event_line(record: Mapping[str, object]) -> str:
    """One event as a fixed-order human-readable line."""
    time_s = record.get("t", 0.0)
    shard = record.get("shard", 0)
    user = record.get("user")
    head = "t=%-8s shard=%-2s user=%-4s %s" % (
        time_s, shard, "-" if user is None else user,
        record.get("type", "?"))
    payload = {key: value for key, value in record.items()
               if key not in ("record", "type", "t", "shard", "user")}
    if not payload:
        return head
    detail = " ".join("%s=%s" % (key, payload[key])
                      for key in sorted(payload))
    return head + "  " + detail


# ----------------------------------------------------------------------
# Report renderers
# ----------------------------------------------------------------------
def render_text(data: TraceData) -> str:
    """The human dashboard: provenance, counters, histograms, checks."""
    lines: List[str] = []
    manifest = data.manifest
    lines.append("run report")
    lines.append("=" * 60)
    if manifest is not None:
        lines.append("strategy:     %s" % manifest.strategy)
        lines.append("workers:      %d" % manifest.workers)
        lines.append("config hash:  %s" % manifest.config_hash[:16])
        lines.append("git sha:      %s" % (manifest.git_sha or "unknown"))
        if manifest.seeds:
            lines.append("seeds:        %s" % " ".join(
                "%s=%d" % (key, manifest.seeds[key])
                for key in sorted(manifest.seeds)))
    else:
        lines.append("(no manifest header in trace)")

    counts = event_counts(data.events)
    lines.append("")
    lines.append("events (%d total)" % len(data.events))
    lines.append("-" * 60)
    for event_type in EVENT_TYPES:
        if event_type in counts:
            lines.append("  %-22s %10d" % (event_type, counts[event_type]))

    lines.extend(render_ledger_text(data.ledger))

    result = reconcile(data)
    lines.append("")
    lines.append("reconciliation vs Metrics totals: %s"
                 % ("OK" if result["ok"] else "FAILED"))
    lines.append("-" * 60)
    checks = result["checks"]
    assert isinstance(checks, list)
    for entry in checks:
        lines.append("  [%s] %-46s %s vs %s"
                     % ("ok" if entry["ok"] else "XX", entry["name"],
                        entry["expected"], entry["actual"]))
    return "\n".join(lines)


def render_ledger_text(ledger: Ledger, width: int = 30) -> List[str]:
    """The engine's counters, then the registry, for both dashboards.

    A histogram reads as one line of count, mean, p50, p99, min and max
    (the percentiles are :meth:`Histogram.percentile` estimates), then
    one ASCII bar per bucket.  Each section opens with a blank line.
    """
    lines: List[str] = []
    if ledger.counters:
        lines.extend(["", "engine counters", "-" * 60])
        for name in sorted(ledger.counters):
            lines.append("  %-28s %12s" % (name, ledger.counters[name]))
    registry = ledger.registry
    if len(registry):
        lines.extend(["", "telemetry registry", "-" * 60])
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, Counter):
            lines.append("  %-28s %12s" % (name, instrument.value))
            continue
        assert isinstance(instrument, Histogram)
        lines.append(
            "  %-28s count=%d mean=%.1f p50=%.1f p99=%.1f min=%.1f max=%.1f"
            % (name, instrument.count, instrument.mean,
               instrument.percentile(0.50), instrument.percentile(0.99),
               instrument.min or 0.0, instrument.max or 0.0))
        peak = max(instrument.bucket_counts)
        labels = ["<= %g" % bound for bound in instrument.buckets]
        labels.append("> %g" % instrument.buckets[-1])
        for label, count in zip(labels, instrument.bucket_counts):
            bar = "#" * (count * width // peak if peak else 0)
            lines.append(("      %-12s %8d  %s" % (label, count, bar))
                         .rstrip())
    return lines


def render_json(data: TraceData) -> str:
    """Machine-readable report: manifest, counts, registry, checks."""
    payload = {
        "manifest": (data.manifest.to_dict()
                     if data.manifest is not None else None),
        "event_counts": event_counts(data.events),
        "registry": data.ledger.registry.to_dict(),
        "metrics": dict(data.ledger.counters),
        "reconciliation": reconcile(data),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_ledger_prom(ledger: Ledger) -> List[str]:
    """One ledger as Prometheus exposition lines (no trailing blank).

    Metric names are prefixed ``repro_``: the registry's instruments
    first, histograms as cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count`` (the Prometheus histogram convention), then the
    engine's counts (``repro_uplink_messages`` and friends; the registry
    keeps no copy of them).  Shared by the trace exporter
    (:func:`render_prom`) and the live STATS scraper (``repro stats
    --format prom``), so a scraped snapshot and a recorded trace of the
    same ledger render byte-identically.
    """
    lines: List[str] = []
    registry = ledger.registry
    for name in registry.names():
        instrument = registry.get(name)
        metric = "repro_" + name
        if isinstance(instrument, Counter):
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %s" % (metric, instrument.value))
        elif isinstance(instrument, Histogram):
            lines.append("# TYPE %s histogram" % metric)
            cumulative = 0
            for bound, count in zip(instrument.buckets,
                                    instrument.bucket_counts):
                cumulative += count
                lines.append('%s_bucket{le="%g"} %d'
                             % (metric, bound, cumulative))
            lines.append('%s_bucket{le="+Inf"} %d'
                         % (metric, instrument.count))
            lines.append("%s_sum %s" % (metric, instrument.sum))
            lines.append("%s_count %d" % (metric, instrument.count))
    for name in sorted(ledger.counters):
        lines.append("# TYPE repro_%s counter" % name)
        lines.append("repro_%s %s" % (name, ledger.counters[name]))
    return lines


def render_prom(data: TraceData) -> str:
    """Prometheus text exposition format (counters, histograms, run info).

    The ledger renders through :func:`render_ledger_prom`; this adds the
    run-info gauge from the manifest and per-event-type totals, so the
    output scrapes directly into any Prometheus-compatible stack.
    """
    lines: List[str] = []
    manifest = data.manifest
    if manifest is not None:
        lines.append("# TYPE repro_run_info gauge")
        lines.append(
            'repro_run_info{strategy="%s",config_hash="%s",'
            'git_sha="%s",workers="%d"} 1'
            % (manifest.strategy, manifest.config_hash,
               manifest.git_sha or "", manifest.workers))
    lines.extend(render_ledger_prom(data.ledger))
    for event_type, count in sorted(event_counts(data.events).items()):
        metric = "repro_events_total"
        lines.append('%s{type="%s"} %d' % (metric, event_type, count))
    return "\n".join(lines) + "\n"
