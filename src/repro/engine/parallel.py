"""Sharded, multi-process simulation engine.

The serial engine replays every vehicle in one process — fine for the
paper's figures, a wall for the roadmap's "millions of users".  This
module breaks it by exploiting the engine's documented independence
property: alarm targets are static within a run and one-shot state is
per subscriber, so vehicles never interact.  The trace set therefore
partitions *vehicle-major* into contiguous shards, each shard replays in
its own worker process against its own :class:`AlarmServer` (own
one-shot table, own index copy), and the per-shard
:class:`~repro.engine.metrics.Metrics` fold back together through the
merge contract (:meth:`Metrics.merged`).

Determinism guarantee — the property the differential test suite
(``tests/engine/test_parallel_equivalence.py``) enforces:

* shards are contiguous slices of the serial replay order, so
  concatenating shard trigger lists in shard order reproduces the serial
  trigger sequence *exactly*;
* every deterministic counter (messages, bytes, probes, evaluations,
  index node accesses) is a per-vehicle sum, so the shard sums equal the
  serial totals bit-for-bit;
* only the wall-clock timing buckets differ (they measure real time on
  real hardware), which is the entire point.

Workers receive a :class:`ShardJob` (registry, grid, sizes, strategy
factory, flags) and their slice of the traces rather than a
:class:`World` — worlds may carry non-picklable memoization hooks — and
return plain metrics plus, when traced, their telemetry, keeping the
process boundary cheap and explicit.  A shard runs the same
:func:`~repro.engine.simulation.replay` the serial engine runs on the
whole trace set; only the scoring happens once, in the parent.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Tuple)

from ..alarms import AlarmRegistry
from ..index import GridOverlay
from ..mobility import TraceSet
from ..protocol.transport import TransportFactory
from ..sanitize import Sanitizer
from ..telemetry.facade import DISABLED, Telemetry
from .metrics import Metrics
from .network import MessageSizes
from .simulation import (SimulationResult, World, in_process_link, replay,
                         score_run)

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ProcessingStrategy

#: A picklable zero-argument callable producing a fresh strategy.
#: Module-level functions, classes and :func:`functools.partial` of
#: either all qualify; lambdas and closures do not cross the process
#: boundary.  The same constraint applies to the optional
#: ``TransportFactory`` handed to :func:`run_parallel_simulation` — it
#: crosses the same process boundary.
StrategyFactory = Callable[[], "ProcessingStrategy"]

#: What one shard ships back: metrics and — when the run is traced —
#: the shard's buffered telemetry events plus its serialized metrics
#: registry (plain dicts: cheap to pickle, merged in the parent through
#: the associative registry merge exactly like ``Metrics.merged``).
_ShardOutcome = Tuple[Metrics, Optional[List[Mapping[str, object]]],
                      Optional[Dict[str, Dict[str, object]]]]


def default_worker_count() -> int:
    """Worker count when the caller does not choose: one per CPU."""
    return max(1, os.cpu_count() or 1)


def shard_traces(traces: TraceSet, shards: int) -> List[TraceSet]:
    """Partition a trace set into contiguous vehicle-major shards.

    The chunks follow the trace set's iteration order — the exact order
    the serial engine replays — and sizes differ by at most one vehicle.
    Requesting more shards than vehicles yields one shard per vehicle;
    an empty trace set yields no shards.
    """
    if shards < 1:
        raise ValueError("shard count must be positive")
    ordered = list(traces)
    count = len(ordered)
    shards = min(shards, count)
    sharded: List[TraceSet] = []
    start = 0
    for index in range(shards):
        # First (count % shards) shards carry one extra vehicle.
        size = count // shards + (1 if index < count % shards else 0)
        chunk = ordered[start:start + size]
        start += size
        sharded.append(TraceSet({trace.vehicle_id: trace for trace in chunk},
                                traces.sample_interval))
    return sharded


@dataclass(frozen=True)
class ShardJob:
    """What every shard of one run shares; picklable by construction.

    ``trace`` and ``sanitize`` are the parent's *resolved* telemetry and
    sanitizer switches: workers must not re-read the environment.
    """

    registry: AlarmRegistry
    grid: GridOverlay
    sizes: MessageSizes
    strategy_factory: StrategyFactory
    transport_factory: Optional[TransportFactory]
    trace: bool
    sanitize: bool

    def run(self, traces: TraceSet, shard_index: int) -> _ShardOutcome:
        """Worker body: replay one shard against a private server.

        Shards hold disjoint vehicles, so a per-shard sanitizer checks
        the same per-client clock invariant the serial engine would; a
        traced shard stamps its events with ``shard_index``.
        """
        telemetry = (Telemetry.capture(shard=shard_index) if self.trace
                     else DISABLED)
        metrics, _ = replay(
            self.registry, self.grid, self.sizes, traces,
            self.strategy_factory(),
            functools.partial(in_process_link,
                              transport_factory=self.transport_factory),
            telemetry=telemetry,
            sanitizer=Sanitizer.resolve(self.sanitize))
        return (metrics,
                telemetry.drain_events() if self.trace else None,
                telemetry.registry.to_dict() if self.trace else None)


#: The job and its shards, inherited by fork()ed workers: set in the
#: parent immediately before pool creation, cleared after the run.  Fork
#: children snapshot the parent's memory, so they read the registry,
#: grid and their shard's traces directly and nothing but a shard index
#: goes through the pool's pickle queue.  Where there is no fork a
#: shard's traces cross it as five arrays a vehicle, 40 bytes a fix
#: (``fleet``: 3.6 MB a shard, pickled and loaded in ~20 ms), beside
#: one copy of the alarm registry and its index.
_INHERITED: Optional[Tuple[ShardJob, List[TraceSet]]] = None


def _worker_init() -> None:
    """Worker bootstrap: freeze the inherited heap out of the gc.

    A fork child shares the parent's (potentially huge) world heap
    copy-on-write; a single gc pass in the child would touch every
    inherited object header and fault-copy the lot.  Freezing moves the
    inherited objects to the permanent generation, so the child's gc
    only ever scans what the child itself allocates.
    """
    gc.collect()
    gc.freeze()


def _run_inherited_shard(index: int) -> _ShardOutcome:
    """Fork-path worker body: run shard ``index`` of ``_INHERITED``."""
    assert _INHERITED is not None, "inherited state missing in fork child"
    job, shards = _INHERITED
    return job.run(shards[index], index)


def _dispatch(job: ShardJob, shards: List[TraceSet]) -> List[_ShardOutcome]:
    """Run every shard, in shard order, where the platform allows."""
    if len(shards) <= 1:  # zero or one shard: stay in-process
        return [job.run(shard, 0) for shard in shards]
    # Fast path: fork children inherit the job through copy-on-write
    # memory, so only a shard *index* crosses the process boundary going
    # in and only per-shard metrics coming back.  Workers are spawned
    # after the global is set; clearing it afterwards keeps runs
    # re-entrant-safe.
    global _INHERITED
    fork = multiprocessing.get_start_method() == "fork"
    _INHERITED = (job, shards) if fork else None
    try:
        with ProcessPoolExecutor(max_workers=len(shards),
                                 initializer=_worker_init) as pool:
            if fork:
                futures = [pool.submit(_run_inherited_shard, index)
                           for index in range(len(shards))]
            else:  # spawn/forkserver: ship the shards through pickle
                futures = [pool.submit(job.run, shard, index)
                           for index, shard in enumerate(shards)]
            return [future.result() for future in futures]  # shard order
    finally:
        _INHERITED = None


def run_parallel_simulation(world: World,
                            strategy_factory: StrategyFactory,
                            workers: Optional[int] = None,
                            telemetry: Optional[Telemetry] = None,
                            transport_factory: Optional[TransportFactory]
                            = None,
                            sanitize: Optional[bool] = None
                            ) -> SimulationResult:
    """Replay the world sharded over ``workers`` processes and merge.

    Drop-in equivalent of :func:`~repro.engine.simulation.run_simulation`
    up to wall-clock timing: the merged metrics, trigger sequence and
    accuracy report are bit-identical to the serial engine's.  The
    strategy is constructed *per shard* by ``strategy_factory`` (each
    worker needs its own instance; per-run server-side strategy state is
    keyed by user id, and shards hold disjoint users, so per-shard
    instances are exact).

    ``workers=1`` runs the single shard in-process — no pool, no pickle
    — which keeps the differential baseline and small runs cheap.
    ``result.wall_time_s`` covers sharding, worker dispatch, replay and
    merge (everything but ground-truth scoring), so measured speedups
    include the parallelism overhead they paid.

    When an enabled ``telemetry`` facade is passed, each worker captures
    its shard's events and metrics into a private in-memory facade
    (stamped with the shard index) and ships them back in the shard
    outcome; the parent folds them into ``telemetry`` in shard order, so
    a traced parallel run produces one coherent event stream and one
    merged registry — reconcilable against the merged ``Metrics``, and
    holding the wall time of every server stage summed over the shards.
    """
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError("workers must be positive")
    telemetry = telemetry if telemetry is not None else DISABLED
    # Resolve once in the parent; the parent's sanitizer holds the
    # geometry snapshot and runs the cross-shard merge spot-check, each
    # worker carries its own clock state for its disjoint vehicle set.
    sanitizer = Sanitizer.resolve(sanitize)
    if sanitizer.enabled:
        sanitizer.snapshot_geometry(world.registry)
    # The factory must be constructible in the parent too: the result
    # needs the strategy's display name, and failing fast here beats a
    # pickle traceback out of a worker.
    strategy_name = strategy_factory().name

    started = time.perf_counter()
    shards = shard_traces(world.traces, workers)
    outcomes = _dispatch(
        ShardJob(world.registry, world.grid, world.sizes, strategy_factory,
                 transport_factory, trace=telemetry.enabled,
                 sanitize=sanitizer.enabled),
        shards)
    parts = [outcome[0] for outcome in outcomes]
    metrics = Metrics.merged(parts)
    sanitizer.check_merge(parts, metrics)
    if telemetry.enabled:
        # Fold shard telemetry in shard order: the event stream then
        # mirrors the serial replay order the same way the trigger list
        # does, and the registry merge mirrors Metrics.merged.
        for outcome in outcomes:
            telemetry.absorb_shard(outcome[1] or [], outcome[2])
    wall_time = time.perf_counter() - started
    return score_run(world, strategy_name, metrics, wall_time, sanitizer,
                     workers=len(shards) if shards else 1)
