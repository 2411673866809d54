"""Read-side: trace parsing, reconciliation, filtering, renderers."""

import json

from repro.telemetry import (JsonlSink, RunManifest, Telemetry, TraceData,
                             event_counts, filter_events, read_trace,
                             reconcile, render_event_line, render_json,
                             render_prom, render_text, validate_trace)


def _traced_run(path):
    """A tiny hand-driven traced 'run' with self-consistent totals."""
    manifest = RunManifest.collect("mwpsr", {"trace_seed": 6},
                                   workers=1, git_sha="cafe")
    telemetry = Telemetry.capture(sink=JsonlSink(path), manifest=manifest)
    telemetry.write_manifest()
    telemetry.location_report(1.0, 1, nbytes=34, cost_us=10.0)
    telemetry.location_report(2.0, 2, nbytes=34, cost_us=11.0)
    telemetry.saferegion_computed(1.0, 1, elapsed_us=50.0)
    telemetry.downlink_sent(1.0, 1, nbytes=40, kind="rect", sizing_us=0.5)
    telemetry.alarm_fired(2.0, 2, alarm_id=3)
    telemetry.write_summary(
        {"uplink_messages": 2, "uplink_bytes": 68,
         "downlink_messages": 1, "downlink_bytes": 40,
         "trigger_notifications": 1, "safe_region_computations": 1},
        triggers=1, wall_time_s=0.1, workers=1)
    telemetry.close()


class TestReadAndValidate:
    def test_read_trace_splits_record_kinds(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        data = read_trace(path)
        assert data.manifest is not None
        assert data.manifest.strategy == "mwpsr"
        assert len(data.events) == 5
        assert data.summary is not None
        assert validate_trace(data) == []

    def test_validate_flags_missing_header_and_summary(self):
        data = TraceData(manifest=None, events=[], summary=None)
        problems = validate_trace(data)
        assert any("no manifest" in p for p in problems)
        assert any("no trailing summary" in p for p in problems)

    def test_validate_reports_bad_event_with_index(self, tmp_path):
        data = TraceData(manifest=None,
                         events=[{"record": "event", "type": "bogus"}],
                         summary=None)
        assert any(p.startswith("event 0:") for p in validate_trace(data))

    def test_event_counts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        counts = event_counts(read_trace(path).events)
        assert counts == {"location_report": 2, "saferegion_computed": 1,
                          "downlink_sent": 1, "alarm_fired": 1}


class TestReconcile:
    def test_consistent_trace_reconciles(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        result = reconcile(read_trace(path))
        assert result["ok"] is True
        assert all(entry["ok"] for entry in result["checks"])
        # 17 = 27 - 10 + 2 - 2: the parent's 27 rows, less the ten that set
        # a registry counter against the Metrics field it was a copy of
        # (uplink/downlink messages and bytes, alarms fired, safe-region
        # computations, the two drop counters, the two probe counters),
        # plus the two rows that took the drop counters' place with
        # independent evidence, transport_drop events by direction vs
        # Metrics, less the backpressure-stall and queue-wait rows that
        # went with the daemon's queue.  What remains: 4 events-vs-Metrics
        # pairs + those 2, 6 registry-vs-events pairs (saferegion_exits,
        # three net_*, two spans_*), the per-kind downlink prefix sum,
        # and the 4 span rows (balance, client_request-vs-RTT, two
        # pipeline stages).
        assert len(result["checks"]) == 17
        assert not [entry["name"] for entry in result["checks"]
                    if entry["name"].startswith("registry.")
                    and "== metrics." in entry["name"]]

    def test_dropped_event_breaks_reconciliation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        data = read_trace(path)
        # Simulate a lost shard: one alarm event vanishes from the
        # stream while the engine's Metrics still count it.
        data.events = [record for record in data.events
                       if record["type"] != "alarm_fired"]
        result = reconcile(data)
        assert result["ok"] is False
        failing = [entry["name"] for entry in result["checks"]
                   if not entry["ok"]]
        assert "events.alarm_fired == metrics.trigger_notifications" \
            in failing


class TestFilterEvents:
    EVENTS = [
        {"record": "event", "type": "alarm_fired", "t": float(i),
         "shard": i % 2, "user": i % 3, "alarm": i}
        for i in range(10)
    ]

    def test_by_type(self):
        assert filter_events(self.EVENTS, types=["downlink_sent"]) == []
        assert len(filter_events(self.EVENTS,
                                 types=["alarm_fired"])) == 10

    def test_by_user_and_shard(self):
        selected = filter_events(self.EVENTS, user_id=0, shard=0)
        assert all(record["user"] == 0 and record["shard"] == 0
                   for record in selected)

    def test_limit_keeps_the_tail(self):
        selected = filter_events(self.EVENTS, limit=3)
        assert [record["alarm"] for record in selected] == [7, 8, 9]

    def test_zero_limit(self):
        assert filter_events(self.EVENTS, limit=0) == []


class TestRenderers:
    def test_event_line_is_stable(self):
        line = render_event_line(
            {"record": "event", "type": "alarm_fired", "t": 12.0,
             "shard": 1, "user": 7, "alarm": 3})
        assert "alarm_fired" in line
        assert "user=7" in line.replace(" ", "") or "user=7   " in line
        assert "alarm=3" in line

    def test_text_dashboard(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        text = render_text(read_trace(path))
        assert "strategy:     mwpsr" in text
        assert "events (5 total)" in text
        assert "reconciliation vs Metrics totals: OK" in text
        assert "saferegion_residence_s" not in text  # never observed

    def test_json_report_is_parseable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        payload = json.loads(render_json(read_trace(path)))
        assert payload["reconciliation"]["ok"] is True
        assert payload["manifest"]["strategy"] == "mwpsr"
        assert payload["event_counts"]["location_report"] == 2
        assert payload["metrics"]["uplink_messages"] == 2
        assert payload["registry"]["report_cost_us"]["count"] == 2
        assert "uplink_messages" not in payload["registry"]

    def test_prom_exposition(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_run(path)
        prom = render_prom(read_trace(path))
        # Rendered from the summary's metrics section, once.
        assert prom.count('# TYPE repro_uplink_messages counter') == 1
        assert 'repro_uplink_messages 2\n' in prom
        assert 'repro_uplink_bytes 68\n' in prom
        assert 'repro_run_info{strategy="mwpsr"' in prom
        assert 'repro_downlink_payload_bits_bucket{le="+Inf"} 1' in prom
        assert 'repro_events_total{type="alarm_fired"} 1' in prom
        # Cumulative buckets never decrease.
        counts = [int(line.rsplit(" ", 1)[1]) for line in prom.splitlines()
                  if line.startswith("repro_downlink_payload_bits_bucket")]
        assert counts == sorted(counts)
