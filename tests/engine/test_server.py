"""Tests for the alarm server: one-shot firing, accounting, stage timing,
and the run-scoped state it owns (fired sets, memo, scratch, close)."""

from types import SimpleNamespace

import pytest

import repro.engine.server as server_module
from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import AlarmServer, MessageSizes, Metrics
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.protocol.handlers import EVALUATE_ONLY
from repro.protocol.messages import InstallSafePeriod, LocationReport
from repro.protocol.transport import InProcessTransport
from repro.protocol.wire import UPLINK_LOCATION_SIZE, WireCodec
from repro.saferegion.cache import SafeRegionCache
from repro.telemetry import Telemetry

UNIVERSE = Rect(0, 0, 4000, 4000)
#: What one safe-period downlink is charged: the codec's sizing.
SAFE_PERIOD_BYTES = WireCodec().size_of_response(InstallSafePeriod(0.0))


@pytest.fixture
def server():
    registry = AlarmRegistry()
    registry.install(Rect(100, 100, 200, 200), AlarmScope.PUBLIC, 1)
    registry.install(Rect(150, 150, 300, 300), AlarmScope.PUBLIC, 1)
    registry.install(Rect(100, 100, 200, 200), AlarmScope.PRIVATE, 7)
    grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
    return AlarmServer(registry, grid, Metrics(), sizes=MessageSizes())


class TestProcessLocation:
    def test_fires_all_containing(self, server):
        fired = server.process_location(2, 0.0, Point(175, 175))
        assert {alarm.alarm_id for alarm in fired} == {0, 1}
        assert len(server.metrics.triggers) == 2

    def test_one_shot_semantics(self, server):
        server.process_location(2, 0.0, Point(175, 175))
        again = server.process_location(2, 1.0, Point(176, 176))
        assert again == []
        assert len(server.metrics.triggers) == 2

    def test_one_shot_is_per_user(self, server):
        server.process_location(2, 0.0, Point(175, 175))
        other = server.process_location(3, 0.0, Point(175, 175))
        assert len(other) == 2

    def test_private_alarm_owner_only(self, server):
        fired = server.process_location(7, 0.0, Point(120, 120))
        assert {alarm.alarm_id for alarm in fired} == {0, 2}
        fired_other = server.process_location(8, 0.0, Point(120, 120))
        assert {alarm.alarm_id for alarm in fired_other} == {0}

    def test_timing_and_counters(self, server):
        server.telemetry = Telemetry.metrics_only()
        server.process_location(2, 0.0, Point(175, 175))
        metrics = server.metrics
        assert metrics.alarm_evaluations == 1
        assert metrics.index_node_accesses > 0
        assert metrics.trigger_notifications == 2
        # The evaluation's wall time is the registry's stage histogram.
        stage = server.telemetry.registry.histogram("trigger_eval_cost_us")
        assert stage.count == 1
        assert stage.sum > 0


class TestHelpers:
    def test_pending_alarms_exclude_fired(self, server):
        cell = Rect(0, 0, 1000, 1000)
        before = server.pending_alarms_in(2, cell)
        assert len(before) == 2
        server.process_location(2, 0.0, Point(175, 175))
        after = server.pending_alarms_in(2, cell)
        assert after == []

    def test_pending_nearest_distance(self, server):
        distance = server.pending_nearest_distance(2, Point(0, 100))
        assert distance == pytest.approx(100.0)
        server.process_location(2, 0.0, Point(175, 175))
        import math
        assert math.isinf(server.pending_nearest_distance(2, Point(0, 100)))

    def test_message_accounting(self, server):
        # Traffic is charged at the transport boundary, sized by the codec.
        transport = InProcessTransport(server, EVALUATE_ONLY,
                                       verify_wire=True)
        transport.request(LocationReport(user_id=2, sequence=0,
                                         position=Point(3000, 3000),
                                         heading=0.0, speed=5.0), 0.0)
        transport.request(LocationReport(user_id=2, sequence=1,
                                         position=Point(3010, 3000),
                                         heading=0.0, speed=5.0), 1.0)
        transport.push(2, InstallSafePeriod(expiry=30.0), 1.0)
        metrics = server.metrics
        assert metrics.uplink_messages == 2
        assert metrics.uplink_bytes == 2 * UPLINK_LOCATION_SIZE
        assert metrics.downlink_messages == 1
        assert metrics.downlink_bytes == SAFE_PERIOD_BYTES

    def test_timed_saferegion_bucket(self, server):
        server.telemetry = Telemetry.metrics_only()
        with server.timed_saferegion(2, 0.0):
            server.pending_alarms_in(2, Rect(0, 0, 500, 500))
        assert server.metrics.safe_region_computations == 1
        registry = server.telemetry.registry
        stage = registry.histogram("saferegion_compute_cost_us")
        lookup = registry.histogram("index_lookup_cost_us")
        assert stage.count == lookup.count == 1
        # The lookup is nested in the safe-region stage.
        assert stage.sum >= lookup.sum > 0

    def test_untraced_stages_read_no_clock(self, server, monkeypatch):
        def no_clock():
            raise AssertionError("an untraced run read the clock")

        monkeypatch.setattr(server_module, "time",
                            SimpleNamespace(perf_counter=no_clock))
        server.process_location(2, 0.0, Point(175, 175))
        with server.timed_saferegion(2, 0.0):
            server.pending_alarms_in(2, Rect(0, 0, 500, 500))
        assert server.metrics.alarm_evaluations == 1
        assert server.metrics.safe_region_computations == 1

    def test_timed_saferegion_must_say_whose_and_when(self, server):
        """Called bare it used to count a computation and emit no
        ``saferegion_computed`` event: a trace that cannot reconcile."""
        with pytest.raises(TypeError):
            server.timed_saferegion()
        assert server.metrics.safe_region_computations == 0

    def test_current_cell(self, server):
        cell = server.current_cell(Point(1500, 500))
        assert cell.contains_point(Point(1500, 500))


class TestFired:
    def test_materializes_on_first_touch(self, server):
        # Regression: the fired table is a defaultdict — reading an
        # unseen user's set must not require a prior setdefault dance.
        assert server.fired_for(42) == set()
        server.fired_for(42).add(7)
        assert server.fired[42] == {7}

    def test_per_user_isolation(self, server):
        server.fired_for(1).add(5)
        assert server.fired_for(2) == set()


class TestClose:
    def test_idempotent(self, server):
        assert not server.closed
        server.close()
        assert server.closed
        server.close()  # second close must be a no-op, not an error
        assert server.closed

    def test_detaches_caches(self, server):
        registry = server.registry
        assert registry._listeners == [server.region_cache._on_mutation]
        server.close()
        # A detached memo no longer listens: the registry is left as the
        # run found it, and later mutations reach nobody.
        assert registry._listeners == []
        registry.install(Rect(300, 300, 400, 400), AlarmScope.PUBLIC, 1)
        assert server.region_cache.entries() == {}

    def test_scratch_cleared(self, server):
        server.scratch["policy.key"] = {"user": 1}
        server.close()
        assert server.scratch == {}

    def test_memo_on_without_a_flag(self, server):
        assert isinstance(server.region_cache, SafeRegionCache)
        assert server.region_cache.entries() == {}
