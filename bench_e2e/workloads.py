"""The replay and churn workloads: build the world, run passes, check.

Every workload runs inside the ``run.py`` process that was started for
it (one fresh interpreter per workload and run).  An untraced run
(``trace=False``) yields the end-to-end metrics, a traced run the
per-layer ones; both check every pass for correctness.  ``serve_prd``
lives in ``serve.py``.
"""

from __future__ import annotations

import functools
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import (SimulationResult, World, run_dynamic_simulation,
                          run_parallel_simulation, run_simulation)
from repro.experiments import make_mwpsr_strategy, make_pbsr_strategy
from repro.experiments.configs import (WorkloadConfig, build_world,
                                       clear_caches)
from repro.strategies import PeriodicStrategy, ProcessingStrategy

from .layers import (all_layers, layer_metrics, nodes_per_query,
                     protocol_counts)
from .probe import SpeedProbe, corrected
from .tracing import Tracer
from .worlds import churn_schedule, world_config

#: Set-up is repeated until this many builds or this much time, whichever
#: comes first; ``setup_s`` is the median.  The fleet builds three times;
#: the metro world (~6 s a build) only once, or no run would fit its cap.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.5
#: Timed passes a run never goes below, however short ``--seconds`` is:
#: the median of three is not moved by one disturbed pass.
MIN_PASSES = 3
StrategyFactory = Callable[[], ProcessingStrategy]


@dataclass(frozen=True)
class Workload:
    """What distinguishes one workload from another."""

    world: str                      # "fleet" or "metro"
    strategy: StrategyFactory
    churn: bool = False             # run_dynamic_simulation + schedule
    batch_pass: bool = False        # traced run adds a use_batch pass
    sharded_pass: bool = False      # ... and a 2-worker sharded pass


#: Every workload but ``serve_prd``, which ``serve.py`` runs.
REPLAYS: Dict[str, Workload] = {
    "replay_prd": Workload("metro", PeriodicStrategy),
    "replay_mwpsr": Workload("fleet",
                             functools.partial(make_mwpsr_strategy, z=32),
                             batch_pass=True),
    "replay_pbsr": Workload("fleet", functools.partial(make_pbsr_strategy, 5),
                            batch_pass=True, sharded_pass=True),
    "replay_gbsr": Workload("fleet", functools.partial(make_pbsr_strategy, 1),
                            batch_pass=True),
    "churn_mwpsr": Workload("fleet",
                            functools.partial(make_mwpsr_strategy, z=32),
                            churn=True),
}


@dataclass
class Outcome:
    """One run of one workload: the contract line plus the detail."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    def check(self, what: str, bad: int, count: int = 1) -> None:
        """Count ``count`` checked operations, ``bad`` of them failed."""
        self.attempted += count
        if bad:
            self.failed += bad
            self.warnings.append("FAILED %s (%d of %d)" % (what, bad, count))


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def build_once(config: WorkloadConfig) -> World:
    """One full, unmemoized set-up: world plus ground truth."""
    clear_caches()
    world = build_world(config)
    world.ground_truth()
    return world


def _timed_pass(run: Callable[[], SimulationResult]
                ) -> Tuple[float, float, SimulationResult]:
    """(start, end, result) of one pass, garbage collected beforehand."""
    gc.collect()
    started = time.perf_counter()
    result = run()
    return started, time.perf_counter(), result


def _check_pass(outcome: Outcome, result: SimulationResult,
                reference: Optional[SimulationResult], what: str) -> None:
    """Accuracy of one pass, and its counters against the first pass."""
    accuracy = result.accuracy
    outcome.check("%s: trigger accuracy" % what,
                  bad=accuracy.missed + accuracy.spurious + accuracy.late,
                  count=max(1, accuracy.expected))
    if reference is None:
        return
    expected = reference.metrics.counters()
    actual = result.metrics.counters()
    bad = sum(1 for key in expected if actual.get(key) != expected[key])
    bad += result.metrics.triggers != reference.metrics.triggers
    outcome.check("%s: counters differ from the first pass" % what, bad,
                  count=len(expected) + 1)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runner(workload: Workload, world: World, config: WorkloadConfig,
            seed: int, quick: bool) -> Callable[[], SimulationResult]:
    """A callable doing one pass with a fresh strategy and server."""
    make = workload.strategy
    if workload.churn:
        schedule = churn_schedule(world, config, seed, quick)
        return lambda: run_dynamic_simulation(world, make(), schedule)
    return lambda: run_simulation(world, make())


# ----------------------------------------------------------------------
# Replay and churn
# ----------------------------------------------------------------------
def run_replay(name: str, seed: int, seconds: float, trace: bool,
               quick: bool) -> Outcome:
    """``replay_*`` and ``churn_mwpsr``, traced or not."""
    workload = REPLAYS[name]
    config = world_config(workload.world, seed, quick)
    outcome = Outcome()
    if trace:
        return _run_replay_traced(workload, config, seed, seconds, quick,
                                  outcome)
    probe = SpeedProbe()
    probe.start()
    try:
        # Set-up is repeated until SETUP_REPEATS builds or the budget.
        setups: List[Tuple[float, float]] = []
        world: Optional[World] = None
        while (len(setups) < SETUP_REPEATS
               and sum(end - start for start, end in setups) < SETUP_BUDGET_S):
            world = None  # free the previous build before timing the next
            gc.collect()
            started = time.perf_counter()
            world = build_once(config)
            setups.append((started, time.perf_counter()))
        assert world is not None
        run = _runner(workload, world, config, seed, quick)

        # Whole passes while another one fits the time box, at least
        # MIN_PASSES.  None is discarded as warm-up: the median of the
        # corrected walls is reported, and a pass is too dear to throw
        # away.
        box_started = time.perf_counter()
        passes: List[Tuple[float, float]] = []
        first: Optional[SimulationResult] = None
        while (len(passes) < MIN_PASSES
               or (time.perf_counter() - box_started
                   + statistics.median(end - start for start, end in passes)
                   < seconds)):
            started, ended, result = _timed_pass(run)
            passes.append((started, ended))
            _check_pass(outcome, result, first, "pass %d" % len(passes))
            first = first or result
        assert first is not None
    finally:
        probe.stop()

    samples = probe.samples()
    fixes = world.traces.total_samples
    setup_walls = [corrected(samples, *span) for span in setups]
    pass_walls = [corrected(samples, *span) for span in passes]
    outcome.metrics = {
        "setup_s": statistics.median(wall for wall, _factor in setup_walls),
        "fixes_per_s": fixes / statistics.median(
            wall for wall, _factor in pass_walls),
        "peak_rss_mb": _peak_rss_mb(),
    }
    outcome.detail = {
        "fixes": fixes,
        "setups": _spans_detail(setups, setup_walls),
        "passes": _spans_detail(passes, pass_walls),
        "probe_readings": len(samples),
        "expected_triggers": first.accuracy.expected,
        "counters": first.metrics.counters()}
    return outcome


def _spans_detail(spans: List[Tuple[float, float]],
                  walls: List[Tuple[float, float]]) -> List[Dict[str, float]]:
    """Raw wall, corrected wall and speed factor of each timed interval."""
    return [{"raw_s": ended - started, "corrected_s": wall,
             "speed_factor": factor}
            for (started, ended), (wall, factor) in zip(spans, walls)]


def _run_replay_traced(workload: Workload, config: WorkloadConfig, seed: int,
                       seconds: float, quick: bool,
                       outcome: Outcome) -> Outcome:
    tracer = Tracer()
    clear_caches()
    with tracer.installed(), tracer.span("setup"):
        world = build_world(config)
        truth = world.ground_truth()
    setup = tracer.take()
    run = _runner(workload, world, config, seed, quick)
    fixes = world.traces.total_samples

    # Untraced passes first, for a third of the time box and at least
    # one: the base of the overhead ratio (and the code's warm-up).  The
    # span tables hold times as measured; only the walls that are set
    # against each other are corrected for the machine's speed.
    make = workload.strategy
    probe = SpeedProbe()
    probe.start()
    try:
        box_started = time.perf_counter()
        untraced: List[Tuple[float, float]] = []
        first: Optional[SimulationResult] = None
        while (not untraced
               or time.perf_counter() - box_started < seconds / 3.0):
            started, ended, result = _timed_pass(run)
            untraced.append((started, ended))
            _check_pass(outcome, result, first,
                        "untraced pass %d" % len(untraced))
            first = first or result

        def traced_run() -> SimulationResult:
            with tracer.span("engine.replay"):
                return run()

        with tracer.installed():
            started, ended, traced = _timed_pass(traced_run)
        traced_span = (started, ended)
        spans = tracer.take()
        _check_pass(outcome, traced, first, "traced pass")
        outcome.warnings.extend(tracer.warnings)

        batch_span: Optional[Tuple[float, float]] = None
        if workload.batch_pass:
            started, ended, batched = _timed_pass(
                lambda: run_simulation(world, make(), use_batch=True))
            _check_pass(outcome, batched, first, "use_batch pass")
            batch_span = (started, ended)
    finally:
        probe.stop()
    sharded_s: Optional[float] = None
    if workload.sharded_pass:
        # Timed as measured: with both cores given to the workers the
        # probe would read its own program's load as a slow machine.
        started, ended, sharded = _timed_pass(
            lambda: run_parallel_simulation(world, make, workers=2))
        _check_pass(outcome, sharded, first, "sharded pass")
        sharded_s = ended - started

    samples = probe.samples()
    walls = [corrected(samples, *span)[0] for span in untraced]
    values = layer_metrics(setup, spans)
    metrics = traced.metrics
    values.update({
        "mobility.fixes": fixes,
        "alarms.installed": len(world.registry),
        "index.height": world.registry.tree.height,
        "groundtruth.expected_triggers": len(truth),
        "engine.warmup_s": walls[0],
        "strategies.client_self_s": spans.self_s("engine.replay"),
        "strategies.containment_checks": metrics.containment_checks,
        "strategies.containment_ops": metrics.containment_ops,
        "index.node_accesses": metrics.index_node_accesses,
        "trace.overhead_ratio": (corrected(samples, *traced_span)[0]
                                 / min(walls)),
    })
    values.update(protocol_counts(metrics.uplink_messages,
                                   metrics.uplink_bytes,
                                   metrics.downlink_messages,
                                   metrics.downlink_bytes,
                                   metrics.trigger_notifications, fixes))
    values["index.nodes_per_query"] = nodes_per_query(
        spans, metrics.index_node_accesses)
    if batch_span is not None:
        values["engine.batch_fixes_per_s"] = fixes / corrected(
            samples, *batch_span)[0]
    if sharded_s is not None:
        values["engine.sharded_w2_fixes_per_s"] = fixes / sharded_s

    outcome.metrics = all_layers(values)
    outcome.detail = {"fixes": fixes, "untraced_walls_s": walls,
                      "setup_spans": setup.to_rows(),
                      "pass_spans": spans.to_rows()}
    return outcome
