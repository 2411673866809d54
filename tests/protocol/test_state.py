"""ServerState: the one place server-side mutability lives."""

from repro.alarms import AlarmRegistry, AlarmScope
from repro.geometry import Rect
from repro.index import GridOverlay
from repro.protocol.state import ServerState
from repro.saferegion.cache import SafeRegionCache

UNIVERSE = Rect(0, 0, 4000, 4000)


def _registry():
    registry = AlarmRegistry()
    registry.install(Rect(100, 100, 200, 200), AlarmScope.PUBLIC, 1)
    return registry


def _state():
    return ServerState(_registry(), GridOverlay(UNIVERSE, 1.0))


class TestFired:
    def test_materializes_on_first_touch(self):
        state = _state()
        # Regression: the fired table is a defaultdict — reading an
        # unseen user's set must not require a prior setdefault dance.
        assert state.fired_for(42) == set()
        state.fired_for(42).add(7)
        assert state.fired[42] == {7}

    def test_per_user_isolation(self):
        state = _state()
        state.fired_for(1).add(5)
        assert state.fired_for(2) == set()


class TestClose:
    def test_idempotent(self):
        state = _state()
        assert not state.closed
        state.close()
        assert state.closed
        state.close()  # second close must be a no-op, not an error
        assert state.closed

    def test_detaches_caches(self):
        state = _state()
        registry = state.registry
        assert registry._listeners == [state.region_cache._on_mutation]
        state.close()
        # A detached memo no longer listens: the registry is left as the
        # run found it, and later mutations reach nobody.
        assert registry._listeners == []
        registry.install(Rect(300, 300, 400, 400), AlarmScope.PUBLIC, 1)
        assert state.region_cache.entries() == {}

    def test_scratch_cleared(self):
        state = _state()
        state.scratch["policy.key"] = {"user": 1}
        state.close()
        assert state.scratch == {}

    def test_memo_on_without_a_flag(self):
        state = _state()
        assert isinstance(state.region_cache, SafeRegionCache)
        assert state.region_cache.entries() == {}
