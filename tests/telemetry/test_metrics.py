"""Instrument behavior: counters, histograms, the registry."""

import pytest

from repro.telemetry import (INSTRUMENTS, Counter, Histogram,
                             MetricsRegistry, TelemetryError)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(TelemetryError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_merge_adds(self):
        left, right = Counter("c"), Counter("c")
        left.inc(2)
        right.inc(3)
        left.merge(right)
        assert left.value == 5


class TestHistogram:
    def test_le_bucket_semantics(self):
        hist = Histogram("h", (1.0, 2.0))
        hist.observe(1.0)   # at a bound lands at-or-below it
        hist.observe(1.5)
        hist.observe(99.0)  # overflow slot
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 99.0

    def test_mean(self):
        hist = Histogram("h", (10.0,))
        assert hist.mean == 0.0
        hist.observe(2)
        hist.observe(4)
        assert hist.mean == 3.0

    def test_buckets_must_ascend(self):
        with pytest.raises(TelemetryError, match="ascending"):
            Histogram("h", (2.0, 2.0))

    def test_needs_a_bucket(self):
        with pytest.raises(TelemetryError, match="at least one"):
            Histogram("h", ())

    def test_merge_requires_identical_buckets(self):
        left = Histogram("h", (1.0, 2.0))
        right = Histogram("h", (1.0, 3.0))
        with pytest.raises(TelemetryError, match="bucket bounds differ"):
            left.merge(right)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("net_batches") \
            is registry.counter("net_batches")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("net_batches")
        with pytest.raises(TelemetryError, match="is a counter"):
            registry.histogram("net_batches")

    def test_undeclared_name_is_refused(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError,
                           match="undeclared telemetry instrument "
                                 "'bespoke'"):
            registry.histogram("bespoke")
        assert len(registry) == 0

    def test_declared_kind_is_enforced_at_creation(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError,
                           match="'net_rtt_us' is a histogram, not a "
                                 "counter"):
            registry.counter("net_rtt_us")
        assert len(registry) == 0

    def test_known_names_get_default_buckets(self):
        hist = MetricsRegistry().histogram("index_fanout")
        assert hist.buckets == INSTRUMENTS["index_fanout"].buckets
        assert hist.buckets[0] == 0.0

    def test_roundtrip_through_dict(self):
        registry = MetricsRegistry()
        registry.counter("net_batches").inc(3)
        registry.counter("saferegion_cache_hits").inc(9)
        registry.histogram("net_batch_size").observe(1.5)
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()

    def test_merge_kind_mismatch_rejected(self):
        left = MetricsRegistry()
        left.counter("net_batches")
        # A recorded payload carries its own kind; only a foreign one
        # can disagree with the declaration.
        right = MetricsRegistry.from_dict(
            {"net_batches": {"kind": "histogram", "buckets": [1.0],
                             "bucket_counts": [1, 0], "count": 1,
                             "sum": 1, "min": 1, "max": 1}})
        with pytest.raises(TelemetryError, match="kind mismatch"):
            left.merge(right)

    def test_merge_copies_missing_instruments(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        right.counter("net_batches").inc(2)
        left.merge(right)
        right.counter("net_batches").inc(10)  # no aliasing
        instrument = left.get("net_batches")
        assert isinstance(instrument, Counter)
        assert instrument.value == 2

    def test_deterministic_snapshot_excludes_wall_time(self):
        registry = MetricsRegistry()
        registry.counter("net_batches").inc()
        registry.histogram("report_cost_us").observe(5.0)
        snapshot = registry.deterministic_snapshot()
        assert "net_batches" in snapshot
        assert "report_cost_us" not in snapshot
        assert "report_cost_us" in registry.to_dict()

    def test_corrupt_payload_rejected(self):
        with pytest.raises(TelemetryError, match="unknown instrument"):
            MetricsRegistry.from_dict({"x": {"kind": "meter"}})
        with pytest.raises(TelemetryError, match="bucket counts"):
            MetricsRegistry.from_dict({"h": {
                "kind": "histogram", "buckets": [1.0, 2.0],
                "bucket_counts": [0, 0], "count": 0, "sum": 0}})
