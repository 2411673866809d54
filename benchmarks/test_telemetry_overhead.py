"""Telemetry overhead: disabled tracing must cost an attribute check.

The facade's design rule (see ``repro.telemetry.facade``) is that an
untraced run executes the pre-telemetry instruction stream plus one
``telemetry.enabled`` test per instrumented site.  Three layers of
guard:

* microbenchmarks of the disabled emit path (statistical, for the
  numbers);
* a calibrated ceiling — the median disabled emit must stay within a
  generous multiple of a bare attribute-check call measured on the same
  machine in the same process, so the guard tracks machine speed
  instead of hard-coding nanoseconds;
* functional no-op checks — a disabled facade's registry and sink stay
  empty, and a disabled-telemetry simulation produces byte-identical
  metrics to an untraced one.
"""

import time

from repro.engine import run_simulation
from repro.experiments import TINY, build_world
from repro.experiments.figures import make_mwpsr_strategy
from repro.telemetry import DISABLED, ListSink, Telemetry

#: Disabled emit may cost at most this many times a bare enabled-check.
#: The emit is `if not self.enabled: return` — the multiplier leaves
#: room for argument passing and scheduler noise, not for real work.
DISABLED_OVERHEAD_CEILING = 25.0


class _Guard:
    """The minimal shape of the hot-path guard: one attribute test."""

    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = False

    def check(self):
        if not self.enabled:
            return


def _median_ns(func, calls=200, rounds=31):
    samples = []
    for _ in range(rounds):
        started = time.perf_counter_ns()
        for _ in range(calls):
            func()
        samples.append((time.perf_counter_ns() - started) / calls)
    samples.sort()
    return samples[len(samples) // 2]


def test_disabled_emit_is_a_noop_benchmark(benchmark):
    benchmark(lambda: DISABLED.location_report(1.0, 1, nbytes=34,
                                               cost_us=1.0))


def test_enabled_emit_benchmark(benchmark):
    telemetry = Telemetry.capture(sink=ListSink())
    counter = iter(range(10**9))

    def emit():
        telemetry.location_report(float(next(counter)), 1, nbytes=34,
                                  cost_us=1.0)

    benchmark(emit)


def test_disabled_emit_within_guard_ceiling():
    guard = _Guard()
    baseline_ns = _median_ns(guard.check)
    disabled_ns = _median_ns(
        lambda: DISABLED.location_report(1.0, 1, nbytes=34, cost_us=1.0))
    assert disabled_ns <= max(baseline_ns, 1.0) * DISABLED_OVERHEAD_CEILING, \
        "disabled emit %.1fns vs bare guard %.1fns" % (disabled_ns,
                                                       baseline_ns)


def test_disabled_facade_stays_empty():
    DISABLED.location_report(1.0, 1, nbytes=34, cost_us=1.0)
    DISABLED.downlink_sent(1.0, 1, nbytes=8, kind="push", sizing_us=1.0)
    DISABLED.trigger_eval(1.0)
    DISABLED.index_lookup(1.0, fanout=5)
    assert len(DISABLED.registry) == 0
    assert DISABLED.drain_events() == []


def test_disabled_run_equals_untraced_run():
    world = build_world(TINY)
    untraced = run_simulation(world, make_mwpsr_strategy())
    disabled = run_simulation(world, make_mwpsr_strategy(),
                              telemetry=Telemetry.disabled())
    assert disabled.metrics.counters() == untraced.metrics.counters()
    assert disabled.metrics.triggers == untraced.metrics.triggers
