"""The trace-driven client-server simulation: one replay core.

A :class:`World` bundles everything a run needs — universe, grid
overlay, installed alarms, vehicle traces — and caches the ground truth
so every strategy is scored against the identical reference.

Every engine entry point is a thin front onto the session here:
:func:`replay` (one server, one linked strategy, one loop, server closed
on every path) and :func:`run_session` (what a whole run adds: sanitizer
and telemetry, a private registry for mutating worlds, scoring).  They
are parameterised by what the engines really differ in.  The *loop*
follows from the world: vehicles do not interact while the alarm set is
static (one-shot state is per subscriber), so a static world replays
vehicle-major, which keeps each client's state hot; a world with a
:class:`WorldMutation` replays time-major, because every client must
observe an alarm change in timestamp order.  The *link* is how the
client half reaches the server: :func:`~repro.protocol.transport.connect`
in process, or a daemon thread and a socket (:mod:`repro.net.engine`).
The *executor* is this process or a pool of shard workers
(:mod:`repro.engine.parallel`).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, ContextManager, Dict, Iterator,
                    List, Optional, Protocol, Sequence, Tuple)

from ..alarms import AlarmRegistry, SpatialAlarm
from ..geometry import Rect
from ..index import GridOverlay
from ..mobility import TraceSet
from ..protocol.messages import InvalidateState
from ..protocol.transport import (ClientSession, InProcessTransport,
                                  TransportFactory, connect)
from ..sanitize import DISABLED as SANITIZER_OFF
from ..sanitize import Sanitizer
from ..telemetry.facade import DISABLED, Telemetry
from .energy import EnergyModel
from .groundtruth import (AccuracyReport, Lifetime, TriggerKey,
                          compute_ground_truth, sweep_lifetimes,
                          verify_accuracy)
from .metrics import Metrics
from .network import MessageSizes
from .server import AlarmServer

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ClientState, ProcessingStrategy

#: Ground truth: ``(user_id, alarm_id) -> expected trigger time``.
GroundTruth = Dict[TriggerKey, float]


class World:
    """Immutable-by-convention bundle of one experiment's inputs."""

    def __init__(self, universe: Rect, grid: GridOverlay,
                 registry: AlarmRegistry, traces: TraceSet,
                 sizes: MessageSizes = MessageSizes(),
                 energy: EnergyModel = EnergyModel(),
                 ground_truth_supplier: Optional[Callable[[], GroundTruth]]
                 = None) -> None:
        self.universe = universe
        self.grid = grid
        self.registry = registry
        self.traces = traces
        self.sizes = sizes
        self.energy = energy
        self._ground_truth: Optional[GroundTruth] = None
        # Optional externally-memoized supplier so worlds differing only
        # in grid size can share the (grid-independent) ground truth.
        self._ground_truth_supplier = ground_truth_supplier

    @property
    def user_ids(self) -> List[int]:
        return self.traces.vehicle_ids()

    @property
    def duration_s(self) -> float:
        return self.traces.duration()

    def max_speed(self) -> float:
        """Pessimistic system-wide speed bound for the SP baseline.

        A real deployment would use the regulatory speed cap; we use the
        trace's realized maximum, which is the tightest bound that is
        still guaranteed pessimistic.
        """
        return self.traces.max_speed()

    def ground_truth(self) -> GroundTruth:
        """Expected triggers, computed once and shared across runs."""
        if self._ground_truth is None:
            if self._ground_truth_supplier is not None:
                self._ground_truth = self._ground_truth_supplier()
            else:
                self._ground_truth = compute_ground_truth(self.registry,
                                                          self.traces)
        return self._ground_truth


@dataclass
class SimulationResult:
    """Everything a strategy run produced."""

    strategy_name: str
    metrics: Metrics
    accuracy: AccuracyReport
    duration_s: float
    client_count: int
    total_samples: int
    wall_time_s: float
    energy_model: EnergyModel
    #: Worker count of the sharded engine (1 for serial runs).
    workers: int = 1

    @property
    def client_energy_mwh(self) -> float:
        return self.energy_model.client_energy_mwh(self.metrics)

    @property
    def downstream_bandwidth_mbps(self) -> float:
        return self.metrics.downstream_bandwidth_mbps(self.duration_s)

    @property
    def message_fraction(self) -> float:
        """Uplink messages as a fraction of all location fixes.

        The paper's "less than 3% of messages need to be communicated to
        the server" claim is stated in this unit.
        """
        if self.total_samples == 0:
            return 0.0
        return self.metrics.uplink_messages / self.total_samples


def sanitize_transport_factory(
        factory: Optional[TransportFactory]) -> TransportFactory:
    """The transport a sanitized run uses when none was chosen.

    A caller-supplied factory is respected as-is; the default in-process
    transport is upgraded to its wire-verifying variant, so every
    message's accounted size is checked against ``len(encode(...))``.
    """
    if factory is not None:
        return factory
    return functools.partial(InProcessTransport, verify_wire=True)


def replay_vehicle_major(strategy: "ProcessingStrategy",
                         traces: TraceSet,
                         sanitizer: Optional[Sanitizer] = None) -> None:
    """The core replay loop: each vehicle's trace, one client at a time.

    Shared by the serial engine and every shard of the parallel engine —
    determinism of the sharded path reduces to this loop visiting the
    same vehicles in the same order within each contiguous shard.
    """
    from ..strategies.base import ClientState  # local import: avoid cycle

    sanitizer = sanitizer if sanitizer is not None else SANITIZER_OFF
    advance = strategy.advance
    for trace in traces:
        client = ClientState(trace.vehicle_id)
        if sanitizer.enabled:
            for time_s in trace.times:
                sanitizer.check_clock(trace.vehicle_id, time_s)
        index, stop = 0, len(trace)
        while index < stop:
            # one silent run and the fix that ends it, per call
            index = advance(client, trace, index, stop)


#: What one step changed: the alarms whose coverage changed, each with
#: the regions it gained or lost (an install: its region; a move: the
#: old and the new region), and the ids of the alarms removed.
StepChanges = Tuple[Sequence[Tuple[SpatialAlarm, Tuple[Rect, ...]]],
                    Sequence[int]]


class WorldMutation(Protocol):
    """Alarm churn or target motion, bound to one run's private registry."""

    def apply(self, step: int) -> StepChanges:
        """Make step ``step``'s changes to the registry; report them."""


#: Binds a mutation to ``(private registry, sample interval)``: once for
#: the replay and once for the ground-truth scan, each on a fresh clone.
MutationFactory = Callable[[AlarmRegistry, float], WorldMutation]


def _clone_registry(registry: AlarmRegistry) -> AlarmRegistry:
    """A fresh registry with identical alarms and identical ids."""
    clone = AlarmRegistry()
    alarms = registry.all_alarms()
    installed = clone.install_all(alarms)
    assert installed == alarms  # the source's ids were already dense
    return clone


def _stale(client: "ClientState", server: AlarmServer,
           changes: StepChanges) -> bool:
    """Did this step's changes make the client's cached state unsafe?

    A removal: for a client locally holding the alarm (the OPT push
    list), which would otherwise fire it spuriously.  An install or a
    move of an alarm that can still fire for the client: when a gained
    or lost region touches the client's footprint — the area its
    installed state answers for; it reports the moment it leaves it —
    and always for a safe-period timer, whose bound is global and which
    therefore has no footprint.
    """
    touched, removed = changes
    if removed and any(record.alarm_id in removed
                       for record in client.local_alarms):
        return True
    footprint = client.footprint
    if footprint is None:
        # Flooding is for timers only: a strategy that installs a region
        # must say what area it covers.
        assert client.safe_region is None and not client.local_alarms
        if client.expiry == float("-inf"):
            return False
    user_id = client.user_id
    return any(alarm.is_relevant_to(user_id)
               and alarm.alarm_id not in server.fired_for(user_id)
               and (footprint is None
                    or any(footprint.intersects(region)
                           for region in regions))
               for alarm, regions in touched)


def _invalidate(client: "ClientState", session: ClientSession,
                time_s: float) -> None:
    """Server push: drop the client's cached state; it re-syncs next fix."""
    telemetry = session.telemetry
    if telemetry.enabled and client.region_installed_at is not None:
        # A push-invalidation forcibly ends the client's residency.
        telemetry.saferegion_exit(time_s, client.user_id,
                                  time_s - client.region_installed_at)
    client.safe_region = None
    client.footprint = None
    client.expiry = float("-inf")
    client.local_alarms = []
    client.region_installed_at = None
    # Header-only InvalidateState push; the transport charges its bytes.
    session.transport.push(client.user_id, InvalidateState(), time_s)


def replay_time_major(strategy: "ProcessingStrategy", traces: TraceSet,
                      sanitizer: Sanitizer, server: AlarmServer,
                      mutation: WorldMutation) -> None:
    """The mutating-world loop: every client's fix at one step, in turn.

    Before a step's samples the mutation changes the registry, and
    exactly the clients whose cached state that made stale are
    push-invalidated.  Such a client re-synchronizes on its fix of the
    same step — the earliest sample at which a new or moved alarm could
    trigger — so the accuracy contract extends to mutating worlds.
    Each client is advanced through a one-fix window, so a push never
    finds probes charged for fixes the client has yet to reach.
    """
    from ..strategies.base import ClientState  # local import: avoid cycle

    lanes = [(ClientState(trace.vehicle_id), trace) for trace in traces]
    clients = [client for client, _trace in lanes]
    ends = {len(trace) for trace in traces}
    advance, checking = strategy.advance, sanitizer.enabled
    for step in range(max(ends, default=0)):
        changes = mutation.apply(step)
        if any(changes):
            step_time = step * traces.sample_interval
            for client in clients:
                if _stale(client, server, changes):
                    _invalidate(client, strategy.session, step_time)
        if step in ends:  # a trace ran out: its lane leaves the loop
            lanes = [lane for lane in lanes if step < len(lane[1])]
        for client, trace in lanes:
            if checking:
                sanitizer.check_clock(client.user_id, trace.times[step])
            advance(client, trace, step, step + 1)


def compute_mutating_ground_truth(world: World,
                                  mutation: MutationFactory) -> GroundTruth:
    """Expected triggers, every alarm taken as it stands at each step.

    The mutation is replayed once on a private registry, whose own
    change feed — not what the mutation reports to the engine under test
    — becomes alarm lifetimes: an install opens one, a removal closes
    one, a move closes one and opens the next.  The lifetimes are then
    swept along the traces (the per-step point-query scan this replaces
    is the oracle in ``tests/engine/test_groundtruth.py``).
    """
    registry = _clone_registry(world.registry)
    bound = mutation(registry, world.traces.sample_interval)
    alive = {alarm.alarm_id: (alarm, 0) for alarm in registry.all_alarms()}
    lifetimes: List[Lifetime] = []
    step = 0

    def changed(alarm_id: int, old_region: Optional[Rect],
                new_region: Optional[Rect]) -> None:
        if old_region is not None:
            alarm, since = alive.pop(alarm_id)
            if since < step:  # else gone within the step it came: never live
                lifetimes.append((alarm, since, step))
        if new_region is not None:
            alive[alarm_id] = (registry.get(alarm_id), step)

    registry.add_listener(changed)
    steps = max((len(trace) for trace in world.traces), default=0)
    for step in range(steps):
        bound.apply(step)
    lifetimes.extend((alarm, since, steps)
                     for alarm, since in alive.values())
    return sweep_lifetimes(lifetimes, world.traces)


#: Connects a strategy's client half to the server for the length of a
#: replay; yields the client side's own ``Metrics`` if it keeps one (the
#: socket link does: the daemon thread owns the server's).
Link = Callable[[AlarmServer, "ProcessingStrategy", Sanitizer],
                ContextManager[Optional[Metrics]]]


@contextmanager
def in_process_link(server: AlarmServer, strategy: "ProcessingStrategy",
                    sanitizer: Sanitizer,
                    transport_factory: Optional[TransportFactory] = None
                    ) -> Iterator[None]:
    """The link of every engine but the socket one: :func:`connect`."""
    connect(server, strategy,
            sanitize_transport_factory(transport_factory)
            if sanitizer.enabled else transport_factory)
    yield


def replay(registry: AlarmRegistry, grid: GridOverlay, sizes: MessageSizes,
           traces: TraceSet, strategy: "ProcessingStrategy", link: Link,
           telemetry: Telemetry = DISABLED,
           sanitizer: Sanitizer = SANITIZER_OFF,
           mutation: Optional[MutationFactory] = None
           ) -> Tuple[Metrics, float]:
    """One server, one linked strategy, one loop: (metrics, wall time).

    The unscored core of every run: the world's whole trace set, or one
    shard's slice in a parallel worker.
    """
    metrics = Metrics()
    server = AlarmServer(registry, grid, metrics, sizes=sizes,
                         telemetry=telemetry, sanitizer=sanitizer)
    if telemetry.enabled:
        telemetry.shard_started(len(traces))
    started = time.perf_counter()
    try:
        with link(server, strategy, sanitizer) as client_metrics:
            if mutation is None:
                replay_vehicle_major(strategy, traces, sanitizer)
            else:
                replay_time_major(
                    strategy, traces, sanitizer, server,
                    mutation(registry, traces.sample_interval))
    finally:
        server.close()
    wall_time = time.perf_counter() - started
    if telemetry.enabled:
        telemetry.shard_finished(len(traces), wall_time)
    if client_metrics is not None:
        # The two sides charge disjoint fields, so the parallel
        # engine's exact-sum merge recombines them losslessly.
        parts = [metrics, client_metrics]
        metrics = Metrics.merged(parts)
        sanitizer.check_merge(parts, metrics)
    return metrics, wall_time


def score_run(world: World, strategy_name: str, metrics: Metrics,
              wall_time: float, sanitizer: Sanitizer,
              ground_truth: Optional[Callable[[], GroundTruth]] = None,
              workers: int = 1) -> SimulationResult:
    """Close a run: frozen-geometry check, accuracy, the result value."""
    sanitizer.verify_geometry(world.registry)
    expected = (ground_truth if ground_truth is not None
                else world.ground_truth)()
    return SimulationResult(strategy_name=strategy_name, metrics=metrics,
                            accuracy=verify_accuracy(expected, metrics),
                            duration_s=world.duration_s,
                            client_count=len(world.traces),
                            total_samples=world.traces.total_samples,
                            wall_time_s=wall_time,
                            energy_model=world.energy, workers=workers)


def run_session(world: World, strategy: "ProcessingStrategy",
                link: Link, telemetry: Optional[Telemetry] = None,
                sanitize: Optional[bool] = None,
                mutation: Optional[MutationFactory] = None,
                ground_truth: Optional[Callable[[], GroundTruth]] = None
                ) -> SimulationResult:
    """Replay the whole world in this process and score the run.

    With a ``mutation`` the run works on a clone of the registry, so the
    (memoized) world is untouched, and skips the sanitizer's
    frozen-geometry snapshot: a mutation goes through the registry's
    install/remove/relocate API on purpose.
    """
    telemetry = telemetry if telemetry is not None else DISABLED
    sanitizer = Sanitizer.resolve(sanitize)
    registry = world.registry
    if mutation is not None:
        registry = _clone_registry(registry)
    elif sanitizer.enabled:
        sanitizer.snapshot_geometry(registry)
    metrics, wall_time = replay(
        registry, world.grid, world.sizes, world.traces, strategy, link,
        telemetry=telemetry, sanitizer=sanitizer, mutation=mutation)
    return score_run(world, strategy.name, metrics, wall_time, sanitizer,
                     ground_truth=ground_truth)


def run_simulation(world: World, strategy: "ProcessingStrategy",
                   telemetry: Optional[Telemetry] = None,
                   transport_factory: Optional[TransportFactory] = None,
                   sanitize: Optional[bool] = None,
                   # Accepted, no effect: bench_e2e/workloads.py:260 passes it.
                   use_batch: bool = False
                   ) -> SimulationResult:
    """Replay the world's traces through ``strategy`` and score the run.

    ``transport_factory`` selects the link between the strategy's
    client half and the server (default: the reliable in-process
    transport; pass a :class:`~repro.protocol.transport.LossyTransport`
    factory to simulate drops and retries).  ``telemetry`` attaches the
    structured telemetry facade (see :mod:`repro.telemetry`), whose
    registry also holds the run's wall time by server stage; ``None``
    means the shared disabled facade, whose per-site cost is one
    attribute check.  ``sanitize`` attaches the runtime invariant
    sanitizer (see :mod:`repro.sanitize`); ``None`` consults
    ``REPRO_SANITIZE``, and a disabled run carries the shared no-op
    sanitizer at the same one-attribute-check cost.
    """
    return run_session(world, strategy,
                       functools.partial(in_process_link,
                                         transport_factory=transport_factory),
                       telemetry=telemetry, sanitize=sanitize)
