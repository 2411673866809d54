"""Property suite: the shard-merge algebra the parallel engine relies on.

``MetricsRegistry.merged`` folds per-shard registries in shard order;
the result must not depend on how the fold associates or (for the
deterministic comparison) which order the shards arrive in.  Integer
observations keep every sum exact, so equality is literal ``==`` on the
serialized form — the same signature the golden serial-vs-sharded test
compares.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Histogram, MetricsRegistry

BOUNDS = (1.0, 5.0, 25.0, 100.0)

observations = st.lists(st.integers(min_value=0, max_value=500),
                        max_size=30)


def _histogram(values):
    hist = Histogram("h", BOUNDS)
    for value in values:
        hist.observe(value)
    return hist


def _registry(values):
    registry = MetricsRegistry()
    registry.counter("net_batches").inc(len(values))
    if values:
        registry.counter("saferegion_cache_hits").inc(len(values))
    hist = registry.histogram("index_fanout")
    for value in values:
        hist.observe(value)
    return registry


class TestHistogramMerge:
    @given(observations, observations, observations)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        left = _histogram(a)
        left.merge(_histogram(b))
        left.merge(_histogram(c))
        bc = _histogram(b)
        bc.merge(_histogram(c))
        right = _histogram(a)
        right.merge(bc)
        assert left.to_dict() == right.to_dict()

    @given(observations, observations)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        ab = _histogram(a)
        ab.merge(_histogram(b))
        ba = _histogram(b)
        ba.merge(_histogram(a))
        assert ab.to_dict() == ba.to_dict()

    @given(st.lists(observations, max_size=6))
    @settings(max_examples=60)
    def test_merge_equals_single_pass(self, shards):
        merged = _histogram([])
        for shard in shards:
            merged.merge(_histogram(shard))
        single = _histogram([v for shard in shards for v in shard])
        assert merged.to_dict() == single.to_dict()

    @given(observations)
    @settings(max_examples=60)
    def test_empty_is_identity(self, values):
        hist = _histogram(values)
        hist.merge(_histogram([]))
        assert hist.to_dict() == _histogram(values).to_dict()


class TestRegistryMerge:
    @given(observations, observations, observations)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        left = MetricsRegistry.merged(
            [MetricsRegistry.merged([_registry(a), _registry(b)]),
             _registry(c)])
        right = MetricsRegistry.merged(
            [_registry(a),
             MetricsRegistry.merged([_registry(b), _registry(c)])])
        assert left.to_dict() == right.to_dict()

    @given(observations, observations)
    @settings(max_examples=40)
    def test_commutative(self, a, b):
        ab = MetricsRegistry.merged([_registry(a), _registry(b)])
        ba = MetricsRegistry.merged([_registry(b), _registry(a)])
        assert ab.to_dict() == ba.to_dict()

    @given(st.lists(observations, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_sharded_equals_single_pass(self, shards):
        merged = MetricsRegistry.merged(
            [_registry(shard) for shard in shards])
        single = _registry([v for shard in shards for v in shard])
        assert merged.to_dict() == single.to_dict()

    @given(st.lists(observations, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_merge_survives_serialization(self, shards):
        """Shard registries cross the process boundary as dicts."""
        merged = MetricsRegistry.merged(
            [MetricsRegistry.from_dict(_registry(shard).to_dict())
             for shard in shards])
        direct = MetricsRegistry.merged(
            [_registry(shard) for shard in shards])
        assert merged.to_dict() == direct.to_dict()
