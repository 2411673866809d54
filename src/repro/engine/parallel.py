"""Sharded, multi-process simulation engine.

Vehicles never interact in a static world: alarm targets stay put and
one-shot state is per subscriber.  So the trace set partitions
*vehicle-major* into contiguous shards, each shard replays in its own
worker process against its own :class:`AlarmServer` (own one-shot
table, own index copy), and the per-shard
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
* only wall-clock time differs (the run's wall time, and the telemetry
  registry's stage histograms when captured), which is the entire
  point.

Each shard's process gets a :class:`ShardJob` (registry, grid,
strategy factory, flags) and its slice of the traces as arguments, not
a :class:`World`, which would carry every vehicle's trace to every
worker, and sends home plain metrics plus, when traced, its telemetry.
A shard runs the same :func:`~repro.engine.simulation.replay` the
serial engine runs on the whole trace set; only the scoring happens
once, in the parent.
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Tuple)

from ..alarms import AlarmRegistry
from ..index import GridOverlay
from ..mobility import TraceSet
from ..protocol.transport import TransportFactory
from ..telemetry.facade import DISABLED, Telemetry
from .metrics import Metrics
from .simulation import (SimulationResult, World, in_process_link, replay,
                         score_run)

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ProcessingStrategy

#: A zero-argument callable producing a fresh strategy.  A worker
#: started under ``spawn`` unpickles it, as it does the optional
#: ``TransportFactory``: module-level functions, classes and
#: :func:`functools.partial` of either qualify, lambdas and closures not.
StrategyFactory = Callable[[], "ProcessingStrategy"]

#: What one shard ships back: metrics, its buffered telemetry events
#: when the run is a full trace, and its registry as plain dicts when
#: telemetry is on at all (merged in the parent like ``Metrics.merged``).
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

    ``trace`` is the parent facade's capture mode: ``"off"``,
    ``"metrics"`` (registry only: the worker builds and ships no event)
    or ``"events"`` (a full trace).
    """

    registry: AlarmRegistry
    grid: GridOverlay
    strategy_factory: StrategyFactory
    transport_factory: Optional[TransportFactory]
    trace: str

    def run(self, traces: TraceSet, shard_index: int) -> _ShardOutcome:
        """Worker body: replay one shard against a private server.

        A traced shard stamps its events with ``shard_index``.
        """
        telemetry = (DISABLED if self.trace == "off"
                     else Telemetry.metrics_only() if self.trace == "metrics"
                     else Telemetry.capture(shard=shard_index))
        metrics, _ = replay(
            self.registry, self.grid, traces,
            self.strategy_factory(),
            functools.partial(in_process_link,
                              transport_factory=self.transport_factory),
            telemetry=telemetry)
        return (metrics,
                telemetry.drain_events() if telemetry.events else None,
                telemetry.registry.to_dict() if telemetry.enabled else None)


def _run_shard(job: ShardJob, shard: TraceSet, index: int,
               pipe: Connection) -> None:
    """Worker body: replay shard ``index`` and send home ``(outcome,
    None)``, or ``(exception, its traceback)``.

    Under ``fork`` the arguments are the parent's objects, shared
    copy-on-write; the heap is frozen out of the gc first, since one gc
    pass would touch every inherited object header and copy the lot.
    """
    gc.collect()
    gc.freeze()
    with pipe:
        try:
            pipe.send((job.run(shard, index), None))
        except Exception as error:  # raised again in the parent
            pipe.send((error, traceback.format_exc()))


def _dispatch(job: ShardJob, shards: List[TraceSet]) -> List[_ShardOutcome]:
    """Run each shard in a process of its own; outcomes in shard order.

    The start method hands a worker its arguments: inherited under
    ``fork``, pickled under ``spawn`` and ``forkserver``.  A worker's
    exception is raised here, and no worker outlives the call.
    """
    if len(shards) <= 1:  # zero or one shard: stay in-process
        return [job.run(shard, 0) for shard in shards]
    workers: List[Tuple[multiprocessing.Process, Connection]] = []
    try:
        for index, shard in enumerate(shards):
            receive, send = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_run_shard, args=(job, shard, index, send))
            process.start()
            send.close()  # the worker's end: EOF once the worker is gone
            workers.append((process, receive))
        outcomes: List[_ShardOutcome] = []
        for index, (process, receive) in enumerate(workers):
            try:
                outcome, failure = receive.recv()
            except EOFError:
                process.join()
                raise RuntimeError("shard %d's worker exited with code %s "
                                   "and sent no outcome"
                                   % (index, process.exitcode)) from None
            if failure is not None:
                raise outcome from RuntimeError(
                    "in shard %d's worker:\n%s" % (index, failure))
            outcomes.append(outcome)
        return outcomes
    except BaseException:
        for process, _ in workers:
            process.terminate()  # no-op for a worker already gone
        raise
    finally:
        for process, receive in workers:
            process.join()
            receive.close()


def run_parallel_simulation(world: World,
                            strategy_factory: StrategyFactory,
                            workers: Optional[int] = None,
                            telemetry: Optional[Telemetry] = None,
                            transport_factory: Optional[TransportFactory]
                            = None
                            ) -> SimulationResult:
    """Replay the world sharded over ``workers`` processes and merge.

    Drop-in equivalent of :func:`~repro.engine.simulation.run_simulation`
    up to wall-clock timing: the merged metrics, trigger sequence and
    accuracy report are bit-identical to the serial engine's.  The
    strategy is constructed *per shard* by ``strategy_factory`` (each
    worker needs its own instance; per-run server-side strategy state is
    keyed by user id, and shards hold disjoint users, so per-shard
    instances are exact).

    ``workers=1`` runs the single shard in-process, which keeps the
    differential baseline and small runs cheap.  ``result.wall_time_s``
    covers sharding, worker dispatch, replay and merge (everything but
    ground-truth scoring), so measured speedups include the parallelism
    overhead they paid.

    Under an enabled ``telemetry`` facade each worker captures its
    shard's events (stamped with the shard index) and metrics in a
    private facade of the same mode (:meth:`Telemetry.metrics_only`
    ships no events) and sends them home; the parent folds them into
    ``telemetry`` in shard order, so a traced parallel run makes one
    coherent event stream and one merged registry, reconcilable against
    the merged ``Metrics`` and holding every server stage's wall time
    summed over the shards.
    """
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ValueError("workers must be positive")
    telemetry = telemetry if telemetry is not None else DISABLED
    # The factory must be constructible in the parent too: the result
    # needs the strategy's display name, and failing fast here beats a
    # pickle traceback out of a worker.
    strategy_name = strategy_factory().name

    started = time.perf_counter()
    shards = shard_traces(world.traces, workers)
    outcomes = _dispatch(
        ShardJob(world.registry, world.grid, strategy_factory,
                 transport_factory,
                 trace=("events" if telemetry.events else
                        "metrics" if telemetry.enabled else "off")),
        shards)
    metrics = Metrics.merged([outcome[0] for outcome in outcomes])
    if telemetry.enabled:
        # Fold shard telemetry in shard order: the event stream then
        # mirrors the serial replay order the same way the trigger list
        # does, and the registry merge mirrors Metrics.merged.
        for outcome in outcomes:
            telemetry.absorb_shard(outcome[1] or [], outcome[2])
    wall_time = time.perf_counter() - started
    return score_run(world, strategy_name, metrics, wall_time,
                     workers=len(shards) if shards else 1)
