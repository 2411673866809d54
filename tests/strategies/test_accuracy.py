"""The accuracy contract: every strategy delivers 100% of the triggers.

This is the paper's headline correctness claim ("the parameters adopted
for each processing approach ensure 100% of the alarms are triggered in
all scenarios") plus two strengthenings our implementation guarantees:
no spurious triggers, and every trigger delivered at exactly the sample
where the ground truth places it.
"""

import pytest

from repro.engine import run_simulation
from repro.mobility import SteadyMotionModel, UniformMotionModel
from repro.saferegion import MWPSRComputer, PBSRComputer
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              PeriodicStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)
from .conftest import make_world


def all_strategies(world):
    return [
        PeriodicStrategy(),
        SafePeriodStrategy(max_speed=world.max_speed()),
        RectangularSafeRegionStrategy(MWPSRComputer(SteadyMotionModel(1, 32)),
                                      name="MWPSR-w"),
        RectangularSafeRegionStrategy(MWPSRComputer(UniformMotionModel()),
                                      name="MWPSR-u"),
        RectangularSafeRegionStrategy(
            MWPSRComputer(SteadyMotionModel(1, 8), exhaustive=True),
            name="MWPSR-x"),
        BitmapSafeRegionStrategy(PBSRComputer(height=1), name="GBSR"),
        BitmapSafeRegionStrategy(PBSRComputer(height=4), name="PBSR4"),
        BitmapSafeRegionStrategy(PBSRComputer(height=1, fan=5),
                                 name="GBSR5"),
        OptimalStrategy(),
    ]


class TestPerfectAccuracy:
    def test_default_world_all_strategies(self, world):
        expected = world.ground_truth()
        assert expected, "world must produce triggers for this test to bite"
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))
            assert result.accuracy.expected == len(expected)

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_randomized_worlds(self, seed):
        world = make_world(map_seed=seed, trace_seed=seed + 1,
                           alarm_seed=seed + 2, vehicles=8, duration=150.0)
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "seed %d %s: %r" % (seed, strategy.name, result.accuracy))

    def test_dense_public_alarms(self):
        world = make_world(alarms=400, public_fraction=0.5, vehicles=6,
                           duration=120.0)
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))

    def test_small_grid_cells(self):
        world = make_world(cell_area_km2=0.2, vehicles=6, duration=120.0)
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))

    def test_single_giant_cell(self):
        world = make_world(cell_area_km2=16.0, vehicles=6, duration=120.0)
        assert world.grid.cell_count == 1
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))


class TestExpectedOrderings:
    """The qualitative orderings the paper's evaluation reports."""

    def test_periodic_sends_every_fix(self, world):
        result = run_simulation(world, PeriodicStrategy())
        assert result.metrics.uplink_messages == world.traces.total_samples

    def test_safe_region_beats_safe_period(self, world):
        sp = run_simulation(world, SafePeriodStrategy(world.max_speed()))
        mw = run_simulation(world, RectangularSafeRegionStrategy(
            MWPSRComputer(SteadyMotionModel(1, 32))))
        assert mw.metrics.uplink_messages < sp.metrics.uplink_messages

    def test_everything_beats_periodic(self, world):
        periodic = run_simulation(world, PeriodicStrategy())
        for strategy in all_strategies(world)[1:]:
            result = run_simulation(world, strategy)
            assert result.metrics.uplink_messages < \
                periodic.metrics.uplink_messages

    def test_opt_sends_fewest(self, world):
        opt = run_simulation(world, OptimalStrategy())
        for strategy in all_strategies(world)[:-1]:
            result = run_simulation(world, strategy)
            assert opt.metrics.uplink_messages <= \
                result.metrics.uplink_messages

    def test_pbsr_messages_fall_with_height(self, world):
        counts = []
        for height in (1, 3, 5):
            strategy = BitmapSafeRegionStrategy(PBSRComputer(height=height),
                                                name="h%d" % height)
            counts.append(run_simulation(world,
                                         strategy).metrics.uplink_messages)
        assert counts[0] > counts[1] >= counts[2]

    def test_opt_costs_most_client_energy(self, world):
        opt = run_simulation(world, OptimalStrategy())
        mw = run_simulation(world, RectangularSafeRegionStrategy(
            MWPSRComputer()))
        assert opt.client_energy_mwh > mw.client_energy_mwh


class TestClusteredWorkloadAccuracy:
    """Hotspot-clustered alarms stress dense cells (deep pyramids, small
    rectangles, the greedy fallback of the adaptive MWPSR selection)."""

    def test_all_strategies_on_hotspots(self):
        from repro.alarms import AlarmRegistry, install_clustered_alarms
        from repro.engine import World
        from repro.index import GridOverlay
        from repro.mobility import MobilityConfig, TraceGenerator
        from repro.roadnet import NetworkConfig, generate_network

        network_config = NetworkConfig(universe_side_m=4000.0,
                                       lattice_spacing_m=400.0)
        network = generate_network(network_config, seed=31)
        traces = TraceGenerator(
            network, MobilityConfig(vehicle_count=8, duration_s=150.0),
            seed=32).generate()
        registry = AlarmRegistry()
        install_clustered_alarms(registry, network_config.universe, 300,
                                 traces.vehicle_ids(), hotspot_count=4,
                                 hotspot_sigma_m=400.0,
                                 public_fraction=0.3, seed=33)
        world = World(universe=network_config.universe,
                      grid=GridOverlay(network_config.universe, 1.0),
                      registry=registry, traces=traces)
        assert world.ground_truth(), "hotspots must produce triggers"
        for strategy in all_strategies(world):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s: %r" % (strategy.name, result.accuracy))
