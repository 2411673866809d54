"""Runtime sanitizer: clean runs stay clean, violations raise.

Two layers: unit tests of each invariant check on the
:class:`~repro.sanitize.Sanitizer` itself, and integration runs of the
serial/time-major/parallel engines with the sanitizer on over every
shipped strategy — a clean engine must never trip its own sanitizer.
"""

import functools

import pytest

from repro.alarms import AlarmScope
from repro.cli import _resolve_strategy
from repro.engine import (AlarmSchedule, Metrics, TargetTrack,
                          run_dynamic_simulation, run_parallel_simulation,
                          run_simulation, run_tracking_simulation)
from repro.engine.metrics import TriggerEvent
from repro.protocol.transport import InProcessTransport
from repro.sanitize import (DISABLED, LOOP_STALL_THRESHOLD_S, Sanitizer,
                            SanitizerError)
from repro.strategies import PeriodicStrategy
from ..strategies.conftest import make_world
from .test_dynamic import crossing_installs

STRATEGY_SPECS = ["periodic", "sp", "mwpsr", "mwpsr-nw", "gbsr",
                  "pbsr", "opt"]


@pytest.fixture(scope="module")
def world():
    return make_world(vehicles=6, duration=90.0)


class TestResolve:
    def test_explicit_flag_wins(self):
        assert Sanitizer.resolve(True).enabled
        assert Sanitizer.resolve(False) is DISABLED

    def test_env_consulted_only_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert Sanitizer.resolve(None) is DISABLED
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Sanitizer.resolve(None).enabled
        assert Sanitizer.resolve(False) is DISABLED
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Sanitizer.resolve(None) is DISABLED

    def test_each_enabled_resolve_is_a_fresh_instance(self):
        assert Sanitizer.resolve(True) is not Sanitizer.resolve(True)


class TestClock:
    def test_nondecreasing_is_fine(self):
        sanitizer = Sanitizer()
        sanitizer.check_clock(1, 0.0)
        sanitizer.check_clock(1, 0.0)
        sanitizer.check_clock(1, 1.5)
        sanitizer.check_clock(2, 0.5)  # other clients are independent

    def test_regression_raises(self):
        sanitizer = Sanitizer()
        sanitizer.check_clock(1, 2.0)
        with pytest.raises(SanitizerError, match="went backwards"):
            sanitizer.check_clock(1, 1.0)


class TestGeometry:
    def test_untouched_registry_verifies(self, world):
        sanitizer = Sanitizer()
        sanitizer.snapshot_geometry(world.registry)
        sanitizer.verify_geometry(world.registry)

    def test_frozen_mutation_is_caught(self):
        local = make_world(vehicles=2, duration=30.0, alarms=20)
        sanitizer = Sanitizer()
        sanitizer.snapshot_geometry(local.registry)
        region = local.registry.all_alarms()[0].region
        object.__setattr__(region, "max_x", region.max_x + 50.0)
        with pytest.raises(SanitizerError, match="geometry changed"):
            sanitizer.verify_geometry(local.registry)

    def test_stale_slab_table_is_caught(self):
        local = make_world(vehicles=2, duration=30.0, alarms=200)
        sanitizer = Sanitizer()
        sanitizer.snapshot_geometry(local.registry)
        tree = local.registry.tree
        tree.search_containing(local.registry.all_alarms()[0].region.center)
        sanitizer.verify_geometry(local.registry)
        assert not tree._root.leaf and tree._root.slabs is not None
        edges, slabs = tree._root.slabs
        tree._root.slabs = (edges, [()] * len(slabs))
        with pytest.raises(SanitizerError, match="stale slab table"):
            sanitizer.verify_geometry(local.registry)

    def test_verify_without_snapshot_is_a_noop(self, world):
        Sanitizer().verify_geometry(world.registry)


class TestWire:
    def test_honest_codec_passes(self, world):
        from repro.protocol.messages import InstallSafePeriod
        from repro.protocol.wire import WireCodec
        codec = WireCodec.from_sizes(world.sizes)
        Sanitizer().check_wire(codec, InstallSafePeriod(expiry=4.0))

    def test_size_accounting_drift_raises(self):
        class _DriftingCodec:
            def size_of_response(self, message):
                return 99

            def encode_response(self, message, sender=0, timestamp=0.0):
                return b"\x00" * 8

        with pytest.raises(SanitizerError, match="accounting drift"):
            Sanitizer().check_wire(_DriftingCodec(), object())


class TestMerge:
    @staticmethod
    def _parts():
        first, second = Metrics(), Metrics()
        first.uplink_messages = 3
        first.triggers.append(TriggerEvent(1.0, 1, 10))
        second.uplink_messages = 4
        second.triggers.append(TriggerEvent(2.0, 2, 10))
        return [first, second]

    def test_honest_merge_passes(self):
        parts = self._parts()
        Sanitizer().check_merge(parts, Metrics.merged(parts))

    def test_tampered_counter_raises(self):
        parts = self._parts()
        merged = Metrics.merged(parts)
        merged.uplink_messages += 1
        with pytest.raises(SanitizerError, match="not associative"):
            Sanitizer().check_merge(parts, merged)

    def test_lost_trigger_raises(self):
        parts = self._parts()
        merged = Metrics.merged(parts)
        merged.triggers.pop()
        with pytest.raises(SanitizerError, match="trigger events"):
            Sanitizer().check_merge(parts, merged)

    def test_single_part_is_skipped(self):
        parts = self._parts()[:1]
        Sanitizer().check_merge(parts, Metrics.merged(parts))


class TestLoopHealth:
    def test_fresh_sanitizer_is_healthy(self):
        Sanitizer().check_loop_health()

    def test_sub_threshold_lag_is_fine(self):
        sanitizer = Sanitizer()
        sanitizer.note_loop_lag(LOOP_STALL_THRESHOLD_S / 10)
        sanitizer.check_loop_health()

    def test_stall_raises_with_the_worst_lag(self):
        sanitizer = Sanitizer()
        sanitizer.note_loop_lag(0.01)
        sanitizer.note_loop_lag(4 * LOOP_STALL_THRESHOLD_S)
        sanitizer.note_loop_lag(0.02)  # worst value is kept
        with pytest.raises(SanitizerError, match="stalled for 2.000s"):
            sanitizer.check_loop_health()


class TestTaskLeaks:
    def test_no_pending_tasks_is_clean(self):
        Sanitizer().check_task_leaks([])

    def test_pending_tasks_raise_with_names(self):
        with pytest.raises(SanitizerError,
                           match=r"2 daemon task\(s\) still pending: "
                                 r"_drain_queue, _stall_watchdog"):
            Sanitizer().check_task_leaks(
                ["_stall_watchdog", "_drain_queue"])


class TestDisabled:
    def test_disabled_checks_are_noops(self, world):
        DISABLED.check_clock(1, 5.0)
        DISABLED.check_clock(1, 1.0)  # regression: still silent
        DISABLED.snapshot_geometry(world.registry)
        DISABLED.verify_geometry(world.registry)
        DISABLED.check_merge([], Metrics())
        DISABLED.note_loop_lag(100.0)
        DISABLED.check_loop_health()  # stall above: still silent
        DISABLED.check_task_leaks(["_stall_watchdog"])
        assert DISABLED.enabled is False


class TestSanitizedRuns:
    @pytest.mark.parametrize("spec", STRATEGY_SPECS)
    def test_serial_run_is_clean(self, world, spec):
        strategy = _resolve_strategy(spec, world.max_speed())
        result = run_simulation(world, strategy, sanitize=True)
        assert result.accuracy.expected >= 0

    def test_sanitized_metrics_equal_unsanitized(self, world):
        plain = run_simulation(world, PeriodicStrategy())
        checked = run_simulation(world, PeriodicStrategy(),
                                 sanitize=True)
        assert checked.metrics.counters() == plain.metrics.counters()

    def test_interleaved_run_is_clean(self, world, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_dynamic_simulation(world, PeriodicStrategy(),
                                        AlarmSchedule([]))
        assert result.accuracy.perfect

    @pytest.mark.parametrize("spec", ["sp", "mwpsr", "pbsr", "opt"])
    def test_mutating_runs_are_clean_and_unchanged(self, world, spec,
                                                   monkeypatch):
        """Dynamic and tracking runs honour ``REPRO_SANITIZE``: checked
        clock, wire-verifying transport, the same counters as unchecked."""
        schedule = AlarmSchedule(crossing_installs(world, count=6,
                                                   at_time=20.0))
        public = next(alarm for alarm in world.registry.all_alarms()
                      if alarm.scope is AlarmScope.PUBLIC)
        track = TargetTrack.following_trace(
            public.alarm_id, world.traces[world.traces.vehicle_ids()[0]],
            width=300.0, height=300.0)

        def runs():
            strategies = [_resolve_strategy(spec, world.max_speed())
                          for _ in range(2)]
            return strategies, [
                run_dynamic_simulation(world, strategies[0], schedule),
                run_tracking_simulation(world, strategies[1], [track])]

        _, plain = runs()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        strategies, checked = runs()
        for strategy, before, after in zip(strategies, plain, checked):
            assert strategy.session.transport.verify_wire
            assert after.accuracy.perfect
            assert after.metrics.counters() == before.metrics.counters()

    def test_mutating_run_checks_the_clock(self, monkeypatch):
        local = make_world(vehicles=2, duration=30.0, alarms=20)
        times = local.traces[local.traces.vehicle_ids()[0]].times
        times[3], times[4] = times[4], times[3]
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(SanitizerError):
            run_dynamic_simulation(local, PeriodicStrategy(),
                                   AlarmSchedule([]))

    def test_parallel_run_is_clean(self, world):
        result = run_parallel_simulation(world, PeriodicStrategy,
                                         workers=2, sanitize=True)
        assert result.workers == 2
        plain = run_parallel_simulation(world, PeriodicStrategy,
                                        workers=2)
        assert result.metrics.counters() == plain.metrics.counters()

    def test_geometry_tamper_mid_run_is_caught(self):
        local = make_world(vehicles=2, duration=30.0, alarms=20)

        class _TamperingStrategy(PeriodicStrategy):
            tampered = False

            def advance(self, client, trace, start, stop):
                if not _TamperingStrategy.tampered:
                    _TamperingStrategy.tampered = True
                    region = local.registry.all_alarms()[0].region
                    object.__setattr__(region, "min_x",
                                       region.min_x - 25.0)
                return super().advance(client, trace, start, stop)

        with pytest.raises(SanitizerError, match="geometry changed"):
            run_simulation(local, _TamperingStrategy(), sanitize=True)

    def test_caller_transport_is_respected(self, world):
        """A sanitized run upgrades only the *default* transport."""
        calls = []

        def factory(server, policy):
            calls.append(True)
            return InProcessTransport(server, policy)

        run_simulation(world, PeriodicStrategy(),
                       transport_factory=factory, sanitize=True)
        assert calls

    def test_env_enables_the_serial_engine(self, world, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_simulation(world, PeriodicStrategy())
        assert result.accuracy.perfect


def test_sanitize_transport_factory_passthrough():
    from repro.engine.simulation import sanitize_transport_factory
    sentinel = functools.partial(InProcessTransport)
    assert sanitize_transport_factory(sentinel) is sentinel
    upgraded = sanitize_transport_factory(None)
    assert upgraded.func is InProcessTransport
    assert upgraded.keywords == {"verify_wire": True}
