"""Structured telemetry: event tracing, metrics, manifests, exporters.

The package is split read-side/write-side around the JSONL trace file:

* **write side** (on the engine's hot paths): the :class:`Telemetry`
  facade, which writes its event records to a :class:`TraceSink` and
  bundles a :class:`MetricsRegistry` and an optional
  :class:`RunManifest`; disabled telemetry — the shared
  :data:`DISABLED` singleton — costs one attribute check per
  instrumented site.
* **read side** (offline, pure): :func:`read_trace`,
  :func:`reconcile` and the ``render_*`` exporters behind
  ``repro report`` / ``repro trace``.

See ``docs/OBSERVABILITY.md`` for the event schema, the instrument
catalogue and the reconciliation contract.
"""

from .events import (BASE_FIELDS, EVENT_ALARM_FIRED, EVENT_DOWNLINK_SENT,
                     EVENT_FIELDS, EVENT_LOCATION_REPORT,
                     EVENT_NET_BATCH, EVENT_NET_CONN_CLOSE,
                     EVENT_NET_CONN_OPEN,
                     EVENT_SAFEREGION_COMPUTED, EVENT_SAFEREGION_EXIT,
                     EVENT_SHARD_FINISHED, EVENT_SHARD_STARTED,
                     EVENT_SPAN_CLOSE, EVENT_SPAN_OPEN, EVENT_TYPES,
                     RECORD_EVENT, RECORD_MANIFEST, RECORD_SUMMARY,
                     validate_event)
from .export import (TraceData, event_counts, filter_events, read_trace,
                     reconcile, render_event_line, render_json,
                     render_metrics_prom, render_prom,
                     render_registry_prom, render_text, validate_trace)
from .facade import DISABLED, Telemetry
from .manifest import (MANIFEST_VERSION, RunManifest, config_fingerprint,
                       current_git_sha, extract_seeds)
from .metrics import (INSTRUMENTS, Counter, Histogram, Instrument,
                      MetricsRegistry, TelemetryError)
from .sinks import JsonlSink, ListSink, TraceSink, read_jsonl
from .spans import (ROOT_SPAN_ID, SERVER_SPAN_IDS, SPAN_CLIENT_REQUEST,
                    SPAN_DECODE, SPAN_HANDLE, SPAN_LOSSY_REQUEST,
                    SPAN_REPLY_ENCODE, STATUS_ERROR, STATUS_OK,
                    make_trace_id, span_close_counts, validate_spans)

__all__ = [
    "BASE_FIELDS",
    "Counter",
    "DISABLED",
    "EVENT_ALARM_FIRED",
    "EVENT_DOWNLINK_SENT",
    "EVENT_FIELDS",
    "EVENT_LOCATION_REPORT",
    "EVENT_NET_BATCH",
    "EVENT_NET_CONN_CLOSE",
    "EVENT_NET_CONN_OPEN",
    "EVENT_SAFEREGION_COMPUTED",
    "EVENT_SAFEREGION_EXIT",
    "EVENT_SHARD_FINISHED",
    "EVENT_SHARD_STARTED",
    "EVENT_SPAN_CLOSE",
    "EVENT_SPAN_OPEN",
    "EVENT_TYPES",
    "Histogram",
    "INSTRUMENTS",
    "Instrument",
    "JsonlSink",
    "ListSink",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "RECORD_EVENT",
    "RECORD_MANIFEST",
    "RECORD_SUMMARY",
    "ROOT_SPAN_ID",
    "RunManifest",
    "SERVER_SPAN_IDS",
    "SPAN_CLIENT_REQUEST",
    "SPAN_DECODE",
    "SPAN_HANDLE",
    "SPAN_LOSSY_REQUEST",
    "SPAN_REPLY_ENCODE",
    "STATUS_ERROR",
    "STATUS_OK",
    "Telemetry",
    "TelemetryError",
    "TraceData",
    "TraceSink",
    "config_fingerprint",
    "current_git_sha",
    "event_counts",
    "extract_seeds",
    "filter_events",
    "make_trace_id",
    "read_jsonl",
    "read_trace",
    "reconcile",
    "render_event_line",
    "render_json",
    "render_metrics_prom",
    "render_prom",
    "render_registry_prom",
    "render_text",
    "span_close_counts",
    "validate_event",
    "validate_spans",
    "validate_trace",
]
