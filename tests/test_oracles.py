"""The test oracles of ``tests/oracles.py`` catch what they are for.

Each oracle re-does work a run already did, so a clean engine must pass
it unchanged and a seeded slip must fail it with the oracle's message:
a geometry write past the frozen types (before or during a run), a
stale x-slab table in the alarm index.  The checked engine fronts must
leave every counter as the bare engines leave it.
"""

import pytest

from repro import engine
from repro.alarms import AlarmScope
from repro.cli import _resolve_strategy
from repro.engine import AlarmSchedule, TargetTrack
from repro.protocol.transport import InProcessTransport
from repro.strategies import PeriodicStrategy

from .engine.test_dynamic import crossing_installs
from .oracles import (pinned_geometry, run_dynamic_simulation,
                      run_parallel_simulation, run_simulation,
                      run_tracking_simulation)
from .strategies.conftest import make_world

STRATEGY_SPECS = ["periodic", "sp", "mwpsr", "mwpsr-nw", "gbsr",
                  "pbsr", "opt"]


@pytest.fixture(scope="module")
def world():
    return make_world(vehicles=6, duration=90.0)


class TestPinnedGeometry:
    def test_untouched_registry_passes(self, world):
        with pinned_geometry(world.registry):
            pass

    def test_frozen_mutation_is_caught(self):
        local = make_world(vehicles=2, duration=30.0, alarms=20)
        region = local.registry.all_alarms()[0].region
        with pytest.raises(AssertionError, match="geometry changed"):
            with pinned_geometry(local.registry):
                object.__setattr__(region, "max_x", region.max_x + 50.0)

    def test_stale_slab_table_is_caught(self):
        local = make_world(vehicles=2, duration=30.0, alarms=200)
        tree = local.registry.tree
        with pinned_geometry(local.registry):
            tree.search_containing(
                local.registry.all_alarms()[0].region.center)
        assert not tree._root.leaf and tree._root.slabs is not None
        with pytest.raises(AssertionError, match="stale slab table"):
            with pinned_geometry(local.registry):
                edges, slabs = tree._root.slabs
                tree._root.slabs = (edges, [()] * len(slabs))

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

        with pytest.raises(AssertionError, match="geometry changed"):
            run_simulation(local, _TamperingStrategy())


class TestCheckedRuns:
    @pytest.mark.parametrize("spec", STRATEGY_SPECS)
    def test_serial_run_is_clean(self, world, spec):
        strategy = _resolve_strategy(spec, world.max_speed())
        result = run_simulation(world, strategy)
        assert strategy.session.transport.verify_wire
        assert result.accuracy.perfect

    def test_checked_metrics_equal_unchecked(self, world):
        plain = engine.run_simulation(world, PeriodicStrategy())
        checked = run_simulation(world, PeriodicStrategy())
        assert checked.metrics.counters() == plain.metrics.counters()

    @pytest.mark.parametrize("spec", ["sp", "mwpsr", "pbsr", "opt"])
    def test_mutating_runs_are_clean_and_unchanged(self, world, spec):
        """The checked dynamic and tracking fronts verify the wire and
        charge exactly what the bare engines charge."""
        schedule = AlarmSchedule(crossing_installs(world, count=6,
                                                   at_time=20.0))
        public = next(alarm for alarm in world.registry.all_alarms()
                      if alarm.scope is AlarmScope.PUBLIC)
        track = TargetTrack.following_trace(
            public.alarm_id, world.traces[world.traces.vehicle_ids()[0]],
            width=300.0, height=300.0)

        def runs(dynamic, tracking):
            strategies = [_resolve_strategy(spec, world.max_speed())
                          for _ in range(2)]
            return strategies, [
                dynamic(world, strategies[0], schedule),
                tracking(world, strategies[1], [track])]

        _, plain = runs(engine.run_dynamic_simulation,
                        engine.run_tracking_simulation)
        strategies, checked = runs(run_dynamic_simulation,
                                   run_tracking_simulation)
        for strategy, before, after in zip(strategies, plain, checked):
            assert strategy.session.transport.verify_wire
            assert after.accuracy.perfect
            assert after.metrics.counters() == before.metrics.counters()

    def test_parallel_run_is_clean(self, world):
        result = run_parallel_simulation(world, PeriodicStrategy,
                                         workers=2)
        assert result.workers == 2
        plain = engine.run_parallel_simulation(world, PeriodicStrategy,
                                               workers=2)
        assert result.metrics.counters() == plain.metrics.counters()

    def test_caller_transport_is_respected(self, world):
        """The checked front verifies only the *default* transport."""
        calls = []

        def factory(server, policy):
            calls.append(True)
            return InProcessTransport(server, policy)

        run_simulation(world, PeriodicStrategy(), transport_factory=factory)
        assert calls
