"""Simulation driver tests: determinism, result fields, interleaving."""

import pytest

from repro.engine import (AlarmSchedule, run_dynamic_simulation,
                          run_simulation, run_tracking_simulation)
from repro.saferegion import MWPSRComputer
from repro.strategies import (PeriodicStrategy,
                              RectangularSafeRegionStrategy)
from ..strategies.conftest import make_world


@pytest.fixture(scope="module")
def world():
    return make_world(vehicles=6, duration=120.0)


class TestRunSimulation:
    def test_result_fields(self, world):
        result = run_simulation(world, PeriodicStrategy())
        assert result.strategy_name == "PRD"
        assert result.client_count == 6
        assert result.total_samples == world.traces.total_samples
        assert result.duration_s == pytest.approx(120.0)
        assert result.wall_time_s > 0
        assert 0 <= result.message_fraction <= 1

    def test_deterministic_metrics(self, world):
        first = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        second = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        assert first.metrics.uplink_messages == second.metrics.uplink_messages
        assert first.metrics.downlink_bytes == second.metrics.downlink_bytes
        assert first.metrics.containment_ops == second.metrics.containment_ops
        assert [ (e.time, e.user_id, e.alarm_id)
                 for e in first.metrics.triggers ] == \
               [ (e.time, e.user_id, e.alarm_id)
                 for e in second.metrics.triggers ]

    def test_runs_do_not_pollute_each_other(self, world):
        """One-shot firing state must not leak between runs."""
        first = run_simulation(world, PeriodicStrategy())
        second = run_simulation(world, PeriodicStrategy())
        assert len(first.metrics.triggers) == len(second.metrics.triggers)
        assert first.accuracy.perfect and second.accuracy.perfect

    def test_message_fraction_periodic_is_one(self, world):
        result = run_simulation(world, PeriodicStrategy())
        assert result.message_fraction == pytest.approx(1.0)


class TestInterleavedSimulation:
    def test_same_totals_as_vehicle_major(self, world):
        """With static alarms the two replay orders agree exactly."""
        vehicle_major = run_simulation(world, PeriodicStrategy())
        by_audience = run_dynamic_simulation(world, PeriodicStrategy(),
                                             AlarmSchedule([]))
        assert by_audience.metrics.uplink_messages == \
            vehicle_major.metrics.uplink_messages
        assert by_audience.metrics.fired_pairs() == \
            vehicle_major.metrics.fired_pairs()
        assert by_audience.accuracy.perfect


class _FailingStrategy(PeriodicStrategy):
    """Raises from the third fix on, whichever loop delivers it (a
    periodic client is silent on none, so every call is one fix)."""

    def __init__(self):
        self.fixes = 0

    def advance(self, client, trace, start, stop):
        self.fixes += 1
        if self.fixes > 2:
            raise RuntimeError("client half failed mid-run")
        return super().advance(client, trace, start, stop)


class TestServerClosedOnEveryPath:
    """A run that dies mid-loop still releases its server's caches."""

    def _assert_closed(self, run):
        strategy = _FailingStrategy()
        with pytest.raises(RuntimeError):
            run(strategy)
        assert strategy.session.transport.server.state.closed

    def test_static_run(self, world):
        self._assert_closed(lambda s: run_simulation(world, s))

    def test_schedule_run(self, world):
        self._assert_closed(lambda s: run_dynamic_simulation(
            world, s, AlarmSchedule([])))

    def test_track_run(self, world):
        self._assert_closed(lambda s: run_tracking_simulation(world, s, []))
