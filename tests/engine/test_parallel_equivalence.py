"""Differential suite: the sharded engine must equal the serial engine.

The parallel engine's entire value rests on one claim — distributing the
replay changes *nothing* but wall time.  This suite enforces it
strategy by strategy: for every processing approach (MWPSR, GBSR, PBSR,
PRD, SP, OPT) and every worker count in {1, 2, 4}, the merged metrics'
deterministic counters, the full trigger event sequence, the fired-alarm
set and the accuracy report must be identical to a serial run over the
same seeded world.

Shard factories live at module level: the pool pickles them into worker
processes, and lambdas or closures would not survive the trip.
"""

import functools

import pytest

from repro.alarms import AlarmRegistry, install_random_alarms
from repro.engine import (Metrics, World, parallel,
                          run_parallel_simulation, run_simulation,
                          shard_traces)
from repro.experiments.figures import make_mwpsr_strategy, make_pbsr_strategy
from repro.index import GridOverlay
from repro.mobility import MobilityConfig, TraceGenerator
from repro.roadnet import NetworkConfig, generate_network
from repro.strategies import (OptimalStrategy, PeriodicStrategy,
                              SafePeriodStrategy)
from repro.telemetry import NullSink, Telemetry

WORKER_COUNTS = (1, 2, 4)

# The differential world: small enough that 6 strategies x 4 engines
# replay in seconds, busy enough that every strategy fires alarms,
# crosses cells and exercises its full protocol.
_WORLD_MAX_SPEED = None


def _make_world():
    network_config = NetworkConfig(universe_side_m=4000.0,
                                   lattice_spacing_m=400.0)
    network = generate_network(network_config, seed=5)
    mobility = MobilityConfig(vehicle_count=12, duration_s=150.0)
    traces = TraceGenerator(network, mobility, seed=6).generate()
    registry = AlarmRegistry()
    install_random_alarms(registry, network_config.universe, 150,
                          traces.vehicle_ids(), public_fraction=0.25,
                          min_side_m=120.0, max_side_m=400.0, seed=7)
    grid = GridOverlay(network_config.universe, 1.0)
    return World(universe=network_config.universe, grid=grid,
                 registry=registry, traces=traces)


@pytest.fixture(scope="module")
def world():
    return _make_world()


# ----------------------------------------------------------------------
# Strategy factories (picklable: module-level functions and partials)
# ----------------------------------------------------------------------
def _mwpsr():
    return make_mwpsr_strategy(z=32)


def _gbsr():
    return make_pbsr_strategy(1)


def _pbsr():
    return make_pbsr_strategy(5)


def _sp(max_speed):
    return SafePeriodStrategy(max_speed=max_speed)


def _factories(world):
    return {
        "MWPSR": _mwpsr,
        "GBSR": _gbsr,
        "PBSR": _pbsr,
        "PRD": PeriodicStrategy,
        "SP": functools.partial(_sp, world.max_speed()),
        "OPT": OptimalStrategy,
    }


STRATEGY_KEYS = ("MWPSR", "GBSR", "PBSR", "PRD", "SP", "OPT")


@pytest.fixture(scope="module")
def serial_results(world):
    """One serial reference run per strategy, shared across worker cases."""
    return {key: run_simulation(world, factory())
            for key, factory in _factories(world).items()}


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------
class TestShardedEqualsSerial:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_bit_identical(self, world, serial_results, key, workers):
        serial = serial_results[key]
        sharded = run_parallel_simulation(world, _factories(world)[key],
                                          workers=workers)
        # Deterministic counters: every Metrics scalar (all are counts).
        assert sharded.metrics.counters() == serial.metrics.counters()
        # The full trigger sequence — times, users, alarms, order.
        assert sharded.metrics.triggers == serial.metrics.triggers
        # Fired-alarm sets and the accuracy report follow, but assert
        # them anyway: they are the user-visible contract.
        assert sharded.metrics.fired_pairs() == serial.metrics.fired_pairs()
        assert sharded.accuracy == serial.accuracy

    @pytest.mark.parametrize("workers", (1, 3))
    def test_profiled_run_is_still_identical(self, world, serial_results,
                                             workers):
        """What ``simulate --profile`` runs: a telemetry capture whose
        events go nowhere, read back for its stage histograms."""
        telemetry = Telemetry.capture(NullSink())
        sharded = run_parallel_simulation(world, _mwpsr, workers=workers,
                                          telemetry=telemetry)
        serial = serial_results["MWPSR"]  # untraced
        assert sharded.metrics.counters() == serial.metrics.counters()
        assert sharded.metrics.triggers == serial.metrics.triggers
        # The merged profile counts every safe-region computation once.
        computes = telemetry.registry.histogram("saferegion_compute_cost_us")
        assert computes.count == serial.metrics.safe_region_computations


# ----------------------------------------------------------------------
# Sharding plumbing
# ----------------------------------------------------------------------
class TestShardTraces:
    def test_partition_preserves_serial_order(self, world):
        shards = shard_traces(world.traces, 5)
        flattened = [trace.vehicle_id for shard in shards for trace in shard]
        assert flattened == [trace.vehicle_id for trace in world.traces]

    def test_partition_is_disjoint_and_complete(self, world):
        shards = shard_traces(world.traces, 4)
        ids = [trace.vehicle_id for shard in shards for trace in shard]
        assert len(ids) == len(set(ids)) == len(world.traces)
        assert sum(shard.total_samples for shard in shards) \
            == world.traces.total_samples

    def test_sizes_differ_by_at_most_one(self, world):
        sizes = [len(shard) for shard in shard_traces(world.traces, 5)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_vehicles(self, world):
        shards = shard_traces(world.traces, len(world.traces) + 10)
        assert len(shards) == len(world.traces)
        assert all(len(shard) == 1 for shard in shards)

    def test_invalid_shard_count(self, world):
        with pytest.raises(ValueError):
            shard_traces(world.traces, 0)

    def test_shards_keep_sample_interval(self, world):
        for shard in shard_traces(world.traces, 3):
            assert shard.sample_interval == world.traces.sample_interval


# ----------------------------------------------------------------------
# One-shot semantics across the merge (satellite of the merge contract)
# ----------------------------------------------------------------------
class TestOneShotAcrossMerge:
    def test_merged_run_never_refires(self, world):
        """No (user, alarm) pair appears twice in any merged trigger list."""
        for workers in WORKER_COUNTS:
            result = run_parallel_simulation(world, _pbsr, workers=workers)
            pairs = [(event.user_id, event.alarm_id)
                     for event in result.metrics.triggers]
            assert len(pairs) == len(set(pairs))

    def test_merge_rejects_cross_shard_refire(self):
        """A pair fired in two shards is a sharding bug, not a sum."""
        from repro.engine import TriggerEvent
        first = Metrics(triggers=[TriggerEvent(1.0, 7, 42)])
        second = Metrics(triggers=[TriggerEvent(5.0, 7, 42)])
        with pytest.raises(ValueError, match="one-shot"):
            Metrics.merged([first, second])


def test_one_worker_may_run_several_inherited_shards(world, monkeypatch):
    """The pool may hand one fork worker several shards: run back to
    back in one process, each inherited shard must equal ``job.run`` on
    it, so no shard may spoil ``_INHERITED`` for the next."""
    shards = shard_traces(world.traces, 3)
    job = parallel.ShardJob(world.registry, world.grid, world.sizes,
                            _mwpsr, None, trace="off", sanitize=False)
    monkeypatch.setattr(parallel, "_INHERITED", (job, shards))
    inherited = [parallel._run_inherited_shard(index)
                 for index in range(len(shards))]
    for index, (metrics, _, _) in enumerate(inherited):
        expected, _, _ = job.run(shards[index], index)
        assert metrics.counters() == expected.counters()
        assert metrics.triggers == expected.triggers


def test_worker_validation(world):
    with pytest.raises(ValueError):
        run_parallel_simulation(world, PeriodicStrategy, workers=0)
