"""The metrics-only capture: the registry is fed, no event is built.

A ``Telemetry.metrics_only()`` facade is what the figure harness and
``repro simulate`` without ``--trace`` run under.  It must feed the
stage histograms every reader of server time uses, exactly once per
counted stage, without ever calling ``Telemetry.emit`` — serial or
sharded.
"""

import pytest

import repro.engine.parallel as parallel
from repro.engine import run_parallel_simulation, run_simulation
from repro.experiments import (TINY, ServerTime, build_world,
                               make_mwpsr_strategy, make_pbsr_strategy)
from repro.strategies import PeriodicStrategy
from repro.telemetry import Telemetry

FACTORIES = {"PRD": PeriodicStrategy, "MWPSR": make_mwpsr_strategy,
             "PBSR": make_pbsr_strategy}


@pytest.fixture(scope="module")
def world():
    return build_world(TINY)


@pytest.fixture
def emits(monkeypatch):
    """Count every ``Telemetry.emit`` call made in this process."""
    calls = []
    original = Telemetry.emit

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Telemetry, "emit", counting)
    return calls


def _stage_count(telemetry, name):
    return telemetry.registry.histogram(name).count


@pytest.mark.parametrize("key", sorted(FACTORIES))
def test_metrics_only_run_emits_no_event(world, emits, key):
    telemetry = Telemetry.metrics_only()
    assert telemetry.enabled and not telemetry.events
    result = run_simulation(world, FACTORIES[key](), telemetry=telemetry)
    assert emits == []
    metrics = result.metrics
    assert metrics.alarm_evaluations > 0
    assert _stage_count(telemetry, "trigger_eval_cost_us") \
        == metrics.alarm_evaluations
    assert _stage_count(telemetry, "saferegion_compute_cost_us") \
        == metrics.safe_region_computations
    assert _stage_count(telemetry, "downlink_sizing_cost_us") \
        == metrics.downlink_messages


def test_sharded_metrics_only_run_ships_no_events(world, monkeypatch):
    outcomes = []
    dispatch = parallel._dispatch

    def recording(job, shards):
        assert job.trace == "metrics"
        result = dispatch(job, shards)
        outcomes.extend(result)
        return result

    monkeypatch.setattr(parallel, "_dispatch", recording)
    telemetry = Telemetry.metrics_only()
    result = run_parallel_simulation(world, make_mwpsr_strategy, workers=2,
                                     telemetry=telemetry)
    assert len(outcomes) == 2
    for _, events, registry_payload in outcomes:
        assert events is None
        assert registry_payload is not None
    # The merged registry still holds every shard's stages.
    metrics = result.metrics
    assert _stage_count(telemetry, "saferegion_compute_cost_us") \
        == metrics.safe_region_computations
    assert _stage_count(telemetry, "trigger_eval_cost_us") \
        == metrics.alarm_evaluations


def test_server_time_reads_the_stage_histograms(world):
    telemetry = Telemetry.metrics_only()
    run_simulation(world, make_mwpsr_strategy(), telemetry=telemetry)
    server = ServerTime.of(telemetry.registry)
    registry = telemetry.registry
    lookup_s = registry.histogram("index_lookup_cost_us").sum / 1e6
    assert server.alarm_processing_s \
        == registry.histogram("trigger_eval_cost_us").sum / 1e6
    assert server.index_lookup_s == lookup_s > 0
    assert server.saferegion_s + lookup_s == pytest.approx(
        registry.histogram("saferegion_compute_cost_us").sum / 1e6)
    assert server.total_s == pytest.approx(
        server.alarm_processing_s + server.index_lookup_s
        + server.saferegion_s)


def test_server_time_of_an_empty_registry_is_zero():
    assert ServerTime.of(Telemetry.metrics_only().registry) \
        == ServerTime(0.0, 0.0, 0.0)
