"""Differential suite: the batched engine must equal the scalar engine.

Batch mode's contract mirrors the parallel engine's — ``use_batch``
changes *nothing* but wall time.  For every shipped strategy the suite
replays one seeded world serial-scalar (the oracle), serial-batch and
sharded-batch, and requires identical deterministic counters, trigger
sequences, fired-alarm sets and accuracy reports.  On top of the
engine matrix it pins the seams: a traced batch run still reconciles
(with the probe charges split across the scalar/batch registry
counters that ``RECONCILE_GROUP_SUMS`` re-totals), a strategy that
keeps the default ``on_batch`` replays sample by sample in trace
order, and the sanitizer's batched clock check accepts monotone time
arrays while rejecting regressions both inside an array and across
batch/scalar boundaries.
"""

import functools

import numpy as np
import pytest

from repro.engine import run_parallel_simulation, run_simulation
from repro.experiments.figures import (make_mwpsr_strategy,
                                       make_pbsr_strategy)
from repro.mobility.batch import SampleBatch
from repro.sanitize import DISABLED, Sanitizer, SanitizerError
from repro.strategies import (OptimalStrategy, PeriodicStrategy,
                              SafePeriodStrategy)
from repro.strategies.base import ProcessingStrategy
from repro.telemetry import Telemetry, TraceData, reconcile
from ..strategies.conftest import make_world


@pytest.fixture(scope="module")
def world():
    return make_world(vehicles=8, duration=100.0)


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
    """One serial scalar run per strategy: the differential oracle."""
    return {key: run_simulation(world, factory())
            for key, factory in _factories(world).items()}


def _assert_identical(run, oracle):
    assert run.metrics.counters() == oracle.metrics.counters()
    assert run.metrics.triggers == oracle.metrics.triggers
    assert run.metrics.fired_pairs() == oracle.metrics.fired_pairs()
    assert run.accuracy == oracle.accuracy


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------
class TestBatchEqualsScalar:
    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_serial_batch_bit_identical(self, world, serial_results, key):
        batch = run_simulation(world, _factories(world)[key](),
                               use_batch=True)
        _assert_identical(batch, serial_results[key])

    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_sharded_batch_bit_identical(self, world, serial_results,
                                         key):
        sharded = run_parallel_simulation(world, _factories(world)[key],
                                          workers=3, use_batch=True)
        _assert_identical(sharded, serial_results[key])


# ----------------------------------------------------------------------
# Telemetry: the split probe counters still reconcile
# ----------------------------------------------------------------------
def _trace_data(telemetry, metrics):
    return TraceData(
        manifest=None, events=list(telemetry.tracer.sink.records),
        summary={"record": "summary", "metrics": metrics.counters(),
                 "registry": telemetry.registry.to_dict()})


class TestTracedBatchRun:
    # MWPSR: the bitmap strategies have no batch kernel (PR 13 measured
    # it slower than the scalar probe), so their batch run charges
    # nothing to the batch counters.
    @pytest.mark.parametrize("use_batch", (False, True))
    def test_traced_run_reconciles(self, world, use_batch):
        telemetry = Telemetry.capture()
        result = run_simulation(world, _mwpsr(), telemetry=telemetry,
                                use_batch=use_batch)
        outcome = reconcile(_trace_data(telemetry, result.metrics))
        assert outcome["ok"], [entry for entry in outcome["checks"]
                               if not entry["ok"]]

    def test_probe_charges_split_but_sum_identically(self, world):
        """Batch mode moves charges between the scalar/batch counters
        without changing the totals the Metrics fields record."""
        def counter(telemetry, name):
            instrument = telemetry.registry.get(name)
            return instrument.value if instrument is not None else 0

        runs = {}
        for use_batch in (False, True):
            telemetry = Telemetry.capture()
            result = run_simulation(world, _mwpsr(), telemetry=telemetry,
                                    use_batch=use_batch)
            runs[use_batch] = (result, telemetry)
        for use_batch, (result, telemetry) in runs.items():
            for group in ("containment_checks", "containment_ops"):
                split = (counter(telemetry, group + "_scalar")
                         + counter(telemetry, group + "_batch"))
                assert split == result.metrics.counters()[group]
            # Batch runs route real work through the batch counter;
            # scalar runs never touch it.
            batch_checks = counter(telemetry, "containment_checks_batch")
            assert (batch_checks > 0) == use_batch


# ----------------------------------------------------------------------
# The default on_batch: sample-by-sample in trace order
# ----------------------------------------------------------------------
class _RecordingStrategy(ProcessingStrategy):
    """Keeps the base ``on_batch`` and records the samples it receives."""

    name = "REC"

    def __init__(self):
        self.seen = []

    def server_policy(self):  # pragma: no cover - never spoken to
        raise NotImplementedError

    def on_sample(self, client, sample):
        self.seen.append((client.user_id, sample.time))


def test_default_on_batch_replays_samples_in_order(world):
    strategy = _RecordingStrategy()
    trace = next(iter(world.traces))
    batch = SampleBatch(trace.samples)
    client_type = type("Client", (), {"user_id": trace.vehicle_id})
    strategy.on_batch(client_type(), batch)
    assert strategy.seen == [(trace.vehicle_id, sample.time)
                             for sample in trace.samples]


# ----------------------------------------------------------------------
# Sanitizer: batched clock checks
# ----------------------------------------------------------------------
class TestBatchedClockSanitizer:
    def test_sanitized_batch_run_stays_clean(self, world, serial_results):
        result = run_simulation(world, _pbsr(), use_batch=True,
                                sanitize=True)
        _assert_identical(result, serial_results["PBSR"])

    def test_monotone_arrays_pass_and_advance_the_clock(self):
        sanitizer = Sanitizer()
        sanitizer.check_clock_batch(1, np.asarray([0.0, 0.5, 0.5, 2.0]))
        sanitizer.check_clock_batch(1, np.asarray([2.0, 3.0]))
        sanitizer.check_clock_batch(2, np.asarray([0.25]))
        sanitizer.check_clock_batch(3, np.asarray([], dtype=np.float64))
        with pytest.raises(SanitizerError):
            # The scalar check shares the per-client clock state.
            sanitizer.check_clock(1, 2.5)

    def test_regression_inside_the_array_raises(self):
        sanitizer = Sanitizer()
        with pytest.raises(SanitizerError, match="went backwards"):
            sanitizer.check_clock_batch(1, np.asarray([0.0, 1.0, 0.5]))

    def test_regression_against_the_previous_batch_raises(self):
        sanitizer = Sanitizer()
        sanitizer.check_clock_batch(1, np.asarray([0.0, 4.0]))
        with pytest.raises(SanitizerError, match="went backwards"):
            sanitizer.check_clock_batch(1, np.asarray([3.0, 5.0]))

    def test_disabled_sanitizer_ignores_everything(self):
        DISABLED.check_clock_batch(1, np.asarray([5.0, 1.0]))
