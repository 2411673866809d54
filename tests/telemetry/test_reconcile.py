"""Golden telemetry suite: traced runs reconcile, sharded equals serial.

Four contracts, asserted per strategy:

* a traced run's event stream and telemetry registry reconcile exactly
  with the engine's own ``Metrics`` totals (:func:`reconcile` — the
  check ``repro report`` performs offline);
* each quantity is written once (:func:`assert_one_ledger`): no registry
  instrument is named after a ``Metrics`` field, and every server stage
  observed its wall time exactly as often as ``Metrics`` counted the
  stage's work;
* a two-shard traced run produces the *same* deterministic registry
  snapshot as the serial run of the same seeded world — telemetry
  inherits the parallel engine's differential guarantee;
* tracing changes nothing: the traced run's ``Metrics`` equal the
  untraced run's.

The seeded mutations at the end are the suite's own test: each re-makes
a slip this layout exists to exclude, and must fail a check above.

Strategy factories live at module level so the worker pool can pickle
them (same constraint as the engine's differential suite).
"""

import dataclasses
import functools
import importlib
import inspect
import sys
import types

import pytest

from repro.alarms import AlarmRegistry, install_random_alarms
from repro.engine import (Metrics, World, run_parallel_simulation,
                          run_simulation)
from repro.experiments.figures import (make_mwpsr_strategy,
                                       make_pbsr_strategy)
from repro.index import GridOverlay
from repro.mobility import MobilityConfig, TraceGenerator
from repro.protocol.transport import LossyTransport
from repro.roadnet import NetworkConfig, generate_network
from repro.strategies import (OptimalStrategy, PeriodicStrategy,
                              SafePeriodStrategy)
from repro.telemetry import Telemetry, TraceData, event_counts, reconcile


def _make_world():
    network_config = NetworkConfig(universe_side_m=4000.0,
                                   lattice_spacing_m=400.0)
    network = generate_network(network_config, seed=11)
    mobility = MobilityConfig(vehicle_count=10, duration_s=120.0)
    traces = TraceGenerator(network, mobility, seed=12).generate()
    registry = AlarmRegistry()
    install_random_alarms(registry, network_config.universe, 120,
                          traces.vehicle_ids(), public_fraction=0.25,
                          min_side_m=120.0, max_side_m=400.0, seed=13)
    grid = GridOverlay(network_config.universe, 1.0)
    return World(universe=network_config.universe, grid=grid,
                 registry=registry, traces=traces)


@pytest.fixture(scope="module")
def world():
    return _make_world()


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


def trace_data(telemetry, metrics):
    """The TraceData a JSONL round-trip of this run would parse to.

    Reads the buffer without draining it — the module-scoped fixture's
    telemetry is shared across tests.
    """
    return TraceData(
        manifest=None, events=list(telemetry.tracer.sink.records),
        summary={"record": "summary", "metrics": metrics.counters(),
                 "registry": telemetry.registry.to_dict()})


#: Stage histogram -> the ``Metrics`` field that counts the same work.
#: Every sizing attempt of a lossy link is a downlink message, so the
#: last row holds with drops too.
STAGE_COUNTS = {
    "trigger_eval_cost_us": "alarm_evaluations",
    "saferegion_compute_cost_us": "safe_region_computations",
    "index_lookup_cost_us": "safe_region_computations",
    "downlink_sizing_cost_us": "downlink_messages",
}


def stage_calls(registry):
    """``{stage histogram: observations}``, 0 for one never created."""
    return {name: getattr(registry.get(name), "count", 0)
            for name in STAGE_COUNTS}


def assert_one_ledger(registry, metrics):
    """Counts live in ``Metrics`` only; each stage's time was observed
    once per unit of the work ``Metrics`` counted."""
    fields = {f.name for f in dataclasses.fields(Metrics)}
    assert not fields & set(registry.names())
    assert stage_calls(registry) == {
        name: getattr(metrics, field)
        for name, field in STAGE_COUNTS.items()}


@pytest.fixture(scope="module")
def serial_runs(world):
    """One traced serial run per strategy, shared across tests."""
    runs = {}
    for key, factory in _factories(world).items():
        telemetry = Telemetry.capture()
        result = run_simulation(world, factory(), telemetry=telemetry)
        runs[key] = (result, telemetry)
    return runs


@pytest.mark.parametrize("key", STRATEGY_KEYS)
class TestSerialReconciliation:
    def test_trace_reconciles_with_metrics(self, serial_runs, key):
        result, telemetry = serial_runs[key]
        outcome = reconcile(trace_data(telemetry, result.metrics))
        assert outcome["ok"], [entry for entry in outcome["checks"]
                               if not entry["ok"]]

    def test_each_quantity_is_written_once(self, serial_runs, key):
        result, telemetry = serial_runs[key]
        assert_one_ledger(telemetry.registry, result.metrics)

    def test_event_pairing_invariants(self, serial_runs, key):
        """The 1:1 pairings behind the reconciliation contract."""
        result, telemetry = serial_runs[key]
        events = telemetry.tracer.sink.records
        counts = event_counts(events)
        metrics = result.metrics
        assert counts.get("location_report", 0) == metrics.uplink_messages
        assert counts.get("downlink_sent", 0) == metrics.downlink_messages
        assert counts.get("alarm_fired", 0) == metrics.trigger_notifications
        assert counts.get("saferegion_computed", 0) \
            == metrics.safe_region_computations
        # Every exit closes a previously installed region: never more
        # exits than downlinks that could have installed one.
        assert counts.get("saferegion_exit", 0) \
            <= metrics.downlink_messages

        def bytes_of(event_type):
            return sum(record["nbytes"] for record in events
                       if record["type"] == event_type)

        assert bytes_of("location_report") == metrics.uplink_bytes
        assert bytes_of("downlink_sent") == metrics.downlink_bytes


@pytest.mark.parametrize("key", STRATEGY_KEYS)
class TestShardedEqualsSerial:
    def test_merged_telemetry_matches_serial(self, world, serial_runs,
                                             key):
        _, serial_telemetry = serial_runs[key]
        sharded_telemetry = Telemetry.capture()
        sharded = run_parallel_simulation(world, _factories(world)[key],
                                          workers=2,
                                          telemetry=sharded_telemetry)
        assert sharded_telemetry.registry.deterministic_snapshot() \
            == serial_telemetry.registry.deterministic_snapshot()
        outcome = reconcile(trace_data(sharded_telemetry,
                                        sharded.metrics))
        assert outcome["ok"], [entry for entry in outcome["checks"]
                               if not entry["ok"]]
        # The stage histograms are wall time, so the snapshot above
        # leaves them out: their counts must survive the merge too.
        assert_one_ledger(sharded_telemetry.registry, sharded.metrics)
        assert stage_calls(sharded_telemetry.registry) \
            == stage_calls(serial_telemetry.registry)

    def test_tracing_does_not_change_the_run(self, world, serial_runs,
                                             key):
        untraced = run_simulation(world, _factories(world)[key]())
        traced_result, _ = serial_runs[key]
        assert untraced.metrics.counters() \
            == traced_result.metrics.counters()
        assert untraced.metrics.triggers == traced_result.metrics.triggers


def test_shard_events_carry_their_shard_index(world):
    telemetry = Telemetry.capture()
    run_parallel_simulation(world, _mwpsr, workers=2, telemetry=telemetry)
    events = telemetry.tracer.sink.records
    shards = {record["shard"] for record in events}
    assert shards == {0, 1}
    starts = [record for record in events
              if record["type"] == "shard_started"]
    finishes = [record for record in events
                if record["type"] == "shard_finished"]
    assert len(starts) == len(finishes) == 2
    assert sum(record["vehicles"] for record in starts) \
        == len(world.traces)


# ----------------------------------------------------------------------
# A lossy link: the drop rows compare non-zero numbers
# ----------------------------------------------------------------------
LOSSY = functools.partial(LossyTransport, uplink_drop=0.3,
                          downlink_drop=0.15, max_attempts=16, seed=5)


def _lossy_run(world, workers, telemetry_class=Telemetry):
    telemetry = telemetry_class.capture()
    if workers == 1:
        result = run_simulation(world, _mwpsr(), telemetry=telemetry,
                                transport_factory=LOSSY)
    else:
        result = run_parallel_simulation(world, _mwpsr, workers=workers,
                                         telemetry=telemetry,
                                         transport_factory=LOSSY)
    return result, telemetry


@pytest.mark.parametrize("workers", [1, 2])
def test_lossy_run_reconciles_on_nonzero_drops(world, workers):
    result, telemetry = _lossy_run(world, workers)
    metrics = result.metrics
    assert result.accuracy.perfect
    # Unequal, so a row reading the wrong direction cannot pass.
    assert 0 < metrics.downlink_drops < metrics.uplink_drops
    outcome = reconcile(trace_data(telemetry, metrics))
    assert outcome["ok"], [entry for entry in outcome["checks"]
                           if not entry["ok"]]
    dropped = {entry["name"]: entry["actual"]
               for entry in outcome["checks"]
               if "transport_drop" in entry["name"]}
    assert dropped == {
        "events.transport_drop[uplink] == metrics.uplink_drops":
            metrics.uplink_drops,
        "events.transport_drop[downlink] == metrics.downlink_drops":
            metrics.downlink_drops}
    # Every attempt is sized, delivered or not.
    assert_one_ledger(telemetry.registry, metrics)
    assert metrics.downlink_messages \
        == metrics.safe_region_computations + metrics.downlink_drops


# ----------------------------------------------------------------------
# The suite's own test: seeded slips in the ledger
# ----------------------------------------------------------------------
def _mutant(module_name, shipped, mutated):
    """``module_name``'s source with one edit, run as a module of its own."""
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    assert source.count(shipped) == 1, "the mutation site moved"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__dict__["__package__"] = module.__package__
    sys.modules[mutant.__name__] = mutant  # @dataclass looks its module up
    try:
        exec(compile(source.replace(shipped, mutated), module.__file__,
                     "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant


REPORT_COST = ('        self.registry.histogram("report_cost_us",\n'
               '                                deterministic=False)'
               '.observe(cost_us)\n')

#: ``(what slipped, shipped facade source, mutated facade source)``.
FACADE_MUTATIONS = [
    ("trigger_eval observe dropped",
     '        self.registry.histogram("trigger_eval_cost_us",\n'
     '                                deterministic=False)'
     '.observe(cost_us)\n', "        pass\n"),
    ("saferegion_compute observe dropped",
     '        self.registry.histogram("saferegion_compute_cost_us",\n'
     '                                deterministic=False)'
     '.observe(elapsed_us)\n', "        pass\n"),
    ("index_lookup observe dropped",
     '        registry.histogram("index_lookup_cost_us",\n'
     '                           deterministic=False).observe(cost_us)\n',
     ""),
    ("downlink_sizing observe dropped",
     '        registry.histogram("downlink_sizing_cost_us",\n'
     '                           deterministic=False).observe(sizing_us)\n',
     ""),
    ("a registry copy of uplink_messages re-added", REPORT_COST,
     REPORT_COST
     + '        self.registry.counter("uplink_messages").inc()\n'),
]


@pytest.mark.parametrize("what,shipped,mutated", FACADE_MUTATIONS,
                         ids=[row[0] for row in FACADE_MUTATIONS])
def test_seeded_facade_mutation_is_caught(world, what, shipped, mutated):
    mutant = _mutant("repro.telemetry.facade", shipped, mutated)
    result, telemetry = _lossy_run(world, 1, mutant.Telemetry)
    with pytest.raises(AssertionError):
        assert_one_ledger(telemetry.registry, result.metrics)


def test_drop_row_comparing_the_wrong_direction_is_caught(world):
    mutant = _mutant("repro.telemetry.export",
                     '    ("uplink", "uplink_drops"),\n'
                     '    ("downlink", "downlink_drops"),\n',
                     '    ("uplink", "downlink_drops"),\n'
                     '    ("downlink", "uplink_drops"),\n')
    result, telemetry = _lossy_run(world, 1)
    data = trace_data(telemetry, result.metrics)
    assert reconcile(data)["ok"]
    outcome = mutant.reconcile(data)
    assert [entry["name"] for entry in outcome["checks"]
            if not entry["ok"]] == [
        "events.transport_drop[uplink] == metrics.downlink_drops",
        "events.transport_drop[downlink] == metrics.uplink_drops"]
