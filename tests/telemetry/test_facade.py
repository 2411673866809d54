"""The Telemetry facade: emitters, disabled mode, shard absorption."""

import pytest

from repro.protocol import DOWNLINK_KINDS
from repro.telemetry import (DISABLED, EVENT_TYPES, INSTRUMENTS, Counter,
                             Gauge, Histogram, ListSink, MetricsRegistry,
                             RunManifest, Telemetry, TelemetryError,
                             Tracer, validate_event)


def _events(telemetry):
    sink = telemetry.tracer.sink
    assert isinstance(sink, ListSink)
    return sink.records


class TestTracer:
    def test_emit_builds_a_schema_valid_record(self):
        sink = ListSink()
        Tracer(sink, shard=3).emit("alarm_fired", 10.0, 7, alarm=2)
        record = sink.records[0]
        assert record == {"record": "event", "type": "alarm_fired",
                          "t": 10.0, "shard": 3, "user": 7, "alarm": 2}
        assert validate_event(record) == []

    def test_userless_emit_omits_user(self):
        sink = ListSink()
        Tracer(sink).emit("shard_started", 0.0, vehicles=5)
        assert "user" not in sink.records[0]

    def test_undeclared_event_type_is_refused(self):
        sink = ListSink()
        with pytest.raises(TelemetryError,
                           match="undeclared event type 'alarm_fire'"):
            Tracer(sink).emit("alarm_fire", 1.0, 7, alarm=2)
        assert sink.records == []


class TestEmitters:
    def test_every_emitter_writes_valid_events(self):
        telemetry = Telemetry.capture()
        telemetry.location_report(1.0, 1, nbytes=34, cost_us=12.0)
        telemetry.saferegion_computed(1.0, 1, elapsed_us=55.0)
        telemetry.saferegion_exit(9.0, 1, residence_s=8.0)
        telemetry.alarm_fired(9.0, 1, alarm_id=4)
        telemetry.downlink_sent(1.0, 1, nbytes=40, kind="rect",
                                sizing_us=0.5)
        telemetry.shard_started(12)
        telemetry.shard_finished(12, wall_s=0.5)
        events = _events(telemetry)
        assert len(events) == 7
        for record in events:
            assert validate_event(record) == []

    def test_the_typed_emitters_cover_both_vocabularies(self):
        """Every typed emitter once (``downlink_sent`` once per kind the
        transport can charge): together they produce exactly the
        declared event types and exactly the declared instruments."""
        telemetry = Telemetry.capture()
        telemetry.location_report(1.0, 1, nbytes=34, cost_us=12.0)
        telemetry.alarm_fired(1.0, 1, alarm_id=4)
        telemetry.saferegion_computed(1.0, 1, elapsed_us=55.0)
        telemetry.saferegion_exit(9.0, 1, residence_s=8.0)
        for kind in DOWNLINK_KINDS:
            telemetry.downlink_sent(1.0, 1, nbytes=40, kind=kind,
                                    sizing_us=0.5)
        telemetry.transport_drop(1.0, 1, direction="uplink")
        telemetry.saferegion_cache(hit=True)
        telemetry.saferegion_cache(hit=False)
        telemetry.trigger_eval(3.0)
        telemetry.index_lookup(4.0, fanout=2)
        telemetry.net_conn_open(1)
        telemetry.net_conn_close(1, clean=True, requests=1)
        telemetry.net_batch(1.0, 1, requests=1, handle_us=30.0)
        telemetry.span_open(1.0, 5, 1, 0, "client_request")
        telemetry.span_close(1.0, 5, 1, "ok", 80.0)
        telemetry.net_rtt(80.0)
        telemetry.shard_started(12)
        telemetry.shard_finished(12, wall_s=0.5)
        assert {record["type"] for record in _events(telemetry)} \
            == set(EVENT_TYPES)
        assert telemetry.registry.names() == sorted(INSTRUMENTS)

    def test_emitters_feed_the_registry(self):
        telemetry = Telemetry.capture()
        telemetry.location_report(1.0, 1, nbytes=34, cost_us=12.0)
        telemetry.location_report(2.0, 2, nbytes=34, cost_us=9.0)
        telemetry.downlink_sent(1.0, 1, nbytes=40, kind="rect",
                                sizing_us=0.5)
        registry = telemetry.registry
        # The uplink count and bytes are Metrics' to hold; the emitter
        # leaves the events (two, 68 bytes) and the cost distribution.
        assert [record["nbytes"] for record in _events(telemetry)
                if record["type"] == "location_report"] == [34, 34]
        cost = registry.histogram("report_cost_us")
        assert cost.count == 2 and cost.sum == 21.0
        assert registry.counter("downlink_messages_rect").value == 1
        hist = registry.histogram("downlink_payload_bits")
        assert hist.count == 1 and hist.sum == 320
        sizing = registry.histogram("downlink_sizing_cost_us")
        assert sizing.count == 1 and sizing.sum == 0.5
        assert registry.names() == [
            "downlink_messages_rect", "downlink_payload_bits",
            "downlink_sizing_cost_us", "report_cost_us"]

    def test_index_fanout_is_registry_only(self):
        telemetry = Telemetry.capture()
        telemetry.index_lookup(6.0, fanout=3)
        telemetry.index_lookup(2.0)  # nearest-distance: no fan-out
        assert _events(telemetry) == []
        registry = telemetry.registry
        fanout = registry.histogram("index_fanout")
        assert fanout.count == 1 and fanout.sum == 3
        lookups = registry.histogram("index_lookup_cost_us")
        assert lookups.count == 2 and lookups.sum == 8.0

    def test_trigger_eval_is_registry_only(self):
        telemetry = Telemetry.capture()
        telemetry.trigger_eval(4.0)
        assert _events(telemetry) == []
        assert telemetry.registry.histogram(
            "trigger_eval_cost_us").sum == 4.0

    def test_wall_time_histograms_are_nondeterministic(self):
        telemetry = Telemetry.capture()
        telemetry.location_report(1.0, 1, nbytes=34, cost_us=12.0)
        telemetry.saferegion_computed(1.0, 1, elapsed_us=5.0)
        telemetry.trigger_eval(4.0)
        telemetry.index_lookup(6.0, fanout=3)
        telemetry.downlink_sent(1.0, 1, nbytes=40, kind="rect",
                                sizing_us=0.5)
        snapshot = telemetry.registry.deterministic_snapshot()
        assert not [name for name in snapshot
                    if name.endswith("_cost_us")]
        assert "index_fanout" in snapshot


class TestDisabledMode:
    def test_disabled_emits_are_noops(self):
        telemetry = Telemetry.disabled()
        telemetry.location_report(1.0, 1, nbytes=34, cost_us=1.0)
        telemetry.alarm_fired(1.0, 1, alarm_id=1)
        telemetry.trigger_eval(1.0)
        telemetry.index_lookup(1.0, fanout=5)
        telemetry.shard_started(3)
        telemetry.write_summary({}, triggers=0, wall_time_s=0.0, workers=1)
        assert len(telemetry.registry) == 0

    def test_shared_singleton_is_disabled(self):
        assert DISABLED.enabled is False
        before = len(DISABLED.registry)
        DISABLED.downlink_sent(1.0, 1, nbytes=8, kind="rect",
                               sizing_us=1.0)
        assert len(DISABLED.registry) == before == 0


class TestTraceLifecycle:
    def test_manifest_and_summary_records(self):
        manifest = RunManifest.collect("mwpsr", {"seed": 1}, git_sha="abc")
        telemetry = Telemetry.capture(manifest=manifest)
        telemetry.write_manifest()
        telemetry.alarm_fired(1.0, 1, alarm_id=1)
        telemetry.saferegion_exit(1.0, 1, residence_s=1.0)
        telemetry.write_summary({"trigger_notifications": 1}, triggers=1,
                                wall_time_s=0.25, workers=2)
        records = _events(telemetry)
        assert records[0]["record"] == "manifest"
        assert records[-1]["record"] == "summary"
        assert records[-1]["metrics"] == {"trigger_notifications": 1}
        assert records[-1]["workers"] == 2
        assert records[-1]["registry"]["saferegion_exits"]["value"] == 1

    def test_absorb_shard_merges_events_and_registry(self):
        shard = Telemetry.capture(shard=1)
        shard.saferegion_exit(3.0, 5, residence_s=2.0)
        parent = Telemetry.capture()
        parent.saferegion_exit(1.0, 2, residence_s=1.0)
        parent.absorb_shard(shard.drain_events(),
                            shard.registry.to_dict())
        events = _events(parent)
        assert [record["shard"] for record in events] == [0, 1]
        assert parent.registry.counter("saferegion_exits").value == 2
        assert parent.registry.histogram(
            "saferegion_residence_s").sum == 3.0

    def test_drain_events_empties_the_buffer(self):
        telemetry = Telemetry.capture()
        telemetry.alarm_fired(1.0, 1, alarm_id=1)
        assert len(telemetry.drain_events()) == 1
        assert telemetry.drain_events() == []


def test_public_surface_reexports():
    # The package root is the supported import path.
    assert Counter and Gauge and Histogram and MetricsRegistry
