"""Scalability sweep: server load as the client population grows.

The paper's motivation (Section 1): "with increasing number of users and
installed spatial alarms in the system, the alarm processing server may
become a bottleneck."  The evaluation shows one population; this sweep
varies it, measuring how each approach's server time and message volume
scale — the quantity that decides how many subscribers one server can
carry.

Expected shape: periodic processing scales linearly in the population's
*location fixes* (every fix is server work), while the safe-region
approaches scale in *safe-region exits*, a far smaller and geometry-
bound number — so the gap widens with population, which is the entire
argument for the distributed architecture.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import SimulationResult, run_parallel_simulation
from ..engine.parallel import StrategyFactory
from ..strategies import PeriodicStrategy, SafePeriodStrategy
from .configs import DEFAULT_CELL_AREA_KM2, WorkloadConfig, build_world
from .figures import make_mwpsr_strategy, make_pbsr_strategy, timed_run
from .report import ServerTime, Table

#: One sweep point: the run and its server time.
TimedRun = Tuple[SimulationResult, ServerTime]


def scalability_sweep(config: WorkloadConfig,
                      populations: Sequence[int] = (30, 60, 120, 240),
                      cell_area_km2: float = DEFAULT_CELL_AREA_KM2
                      ) -> Dict[int, Dict[str, TimedRun]]:
    """Run PRD, SP, MWPSR and PBSR at each population size.

    Returns ``{population: {strategy_name: (result, server_time)}}``
    (see :func:`~repro.experiments.figures.timed_run`); worlds are the
    standard memoized ones, so repeated sweeps are cheap.
    """
    results: Dict[int, Dict[str, TimedRun]] = {}
    for population in populations:
        scaled = replace(config, vehicle_count=population)
        world = build_world(scaled, cell_area_km2)
        per_strategy: Dict[str, TimedRun] = {}
        for strategy in (PeriodicStrategy(),
                         SafePeriodStrategy(max_speed=world.max_speed()),
                         make_mwpsr_strategy(z=32),
                         make_pbsr_strategy(5)):
            per_strategy[strategy.name] = timed_run(world, strategy)
        results[population] = per_strategy
    return results


def parallel_speedup_sweep(config: WorkloadConfig,
                           worker_counts: Sequence[int] = (1, 2, 4),
                           strategy_factory: Optional[StrategyFactory] = None,
                           cell_area_km2: float = DEFAULT_CELL_AREA_KM2
                           ) -> Dict[int, SimulationResult]:
    """One sharded run of the same world per worker count.

    The counterpart of :func:`scalability_sweep` for the *engine's* own
    scalability: same workload, same strategy, replayed through the
    sharded engine at each worker count.  The differential guarantee
    makes every run's metrics identical; only ``wall_time_s`` moves,
    which is what the speedup table reports.  Defaults to the periodic
    strategy — uniformly heavy per sample, so replay cost dominates and
    the measured scaling reflects the engine, not strategy silences.
    """
    world = build_world(config, cell_area_km2)
    world.ground_truth()  # score once up front, outside every timed run
    factory = strategy_factory if strategy_factory else PeriodicStrategy
    return {workers: run_parallel_simulation(world, factory, workers=workers)
            for workers in worker_counts}


def parallel_speedup_table(results: Dict[int, SimulationResult]) -> Table:
    """Render a worker sweep as wall time and speedup over one worker."""
    worker_counts = sorted(results)
    baseline = results[worker_counts[0]].wall_time_s
    table = Table("Parallel engine: wall time vs worker count",
                  ["workers", "wall s", "speedup", "uplink msgs",
                   "triggers"])
    for workers in worker_counts:
        result = results[workers]
        speedup = (baseline / result.wall_time_s
                   if result.wall_time_s > 0 else 0.0)
        table.add_row(workers, round(result.wall_time_s, 2),
                      round(speedup, 2), result.metrics.uplink_messages,
                      len(result.metrics.triggers))
    return table


def scalability_table(results: Dict[int, Dict[str, TimedRun]]) -> Table:
    """Render a sweep as server-time and message columns per approach."""
    populations = sorted(results)
    names: List[str] = list(results[populations[0]])
    headers = (["clients"]
               + ["%s msgs" % name for name in names]
               + ["%s srv-ms" % name for name in names])
    table = Table("Scalability: server cost vs client population", headers)
    for population in populations:
        row: List[object] = [population]
        per_strategy = results[population]
        for name in names:
            row.append(per_strategy[name][0].metrics.uplink_messages)
        for name in names:
            row.append(round(1000 * per_strategy[name][1].total_s, 1))
        table.add_row(*row)
    return table
