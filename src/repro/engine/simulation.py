"""The trace-driven client-server simulation: one replay core.

A :class:`World` bundles everything a run needs — universe, grid
overlay, installed alarms, vehicle traces — and caches the ground truth
so every strategy is scored against the identical reference.

Every engine entry point is a thin front onto :func:`replay` (one
server, one linked strategy, one loop, server closed on every path) and
:func:`run_session` (what a whole run adds: telemetry, a private
registry for mutating worlds, scoring), parameterised by what the
engines really differ in.  The *loop* follows from the world: vehicles
do not interact while the alarm set is static (one-shot state is per
subscriber), so a static world replays vehicle-major, which keeps each
client's state hot.  A world with a :class:`WorldMutation` replays by
audience: each client is brought up to every step whose alarm change
concerns it (a public alarm's concerns everyone), where the change is
made and the client pushed if it went stale.  Every fact about a change
comes from the registry's listeners: who a step concerns and the
ground truth's alarm lifetimes from the feed :func:`record_changes`
records once, what the step changed from the replay's own registry.
The *link* is how the client half reaches the server:
:func:`~repro.protocol.transport.connect` in process, or a daemon
thread and a socket (:mod:`repro.net.engine`).  The *executor* is this
process or one worker process per shard (:mod:`repro.engine.parallel`).

``Metrics.triggers`` is in replay order: by (lane, time) for a static
world, and by (time, lane, alarm id) for a mutating one.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, ContextManager, Dict, Iterable,
                    Iterator, List, Optional, Protocol, Set,
                    Tuple)

from ..alarms import AlarmRegistry, AlarmScope, SpatialAlarm
from ..geometry import Rect
from ..index import GridOverlay
from ..mobility import Trace, TraceSet
from ..protocol.messages import InvalidateState
from ..protocol.transport import ClientSession, TransportFactory, connect
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
    """One experiment's inputs: universe, grid, alarms and traces.

    A plain value its caller holds; every world charges the paper's
    message sizes and energy model.  The ground truth is computed once,
    on first use, and :meth:`regrid` shares it with the same world over
    another grid.
    """

    sizes = MessageSizes()
    energy = EnergyModel()

    def __init__(self, universe: Rect, grid: GridOverlay,
                 registry: AlarmRegistry, traces: TraceSet) -> None:
        self.universe = universe
        self.grid = grid
        self.registry = registry
        self.traces = traces
        self._ground_truth: Optional[GroundTruth] = None

    def regrid(self, cell_area_km2: float) -> "World":
        """This world over a grid of ``cell_area_km2`` cells.

        The registry, the traces and the ground truth (computed here
        first: it does not depend on the grid) are shared, not copied.
        """
        twin = World(self.universe,
                     GridOverlay(self.universe, cell_area_km2),
                     self.registry, self.traces)
        twin._ground_truth = self.ground_truth()
        return twin

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


#: ``ProcessingStrategy.advance``: ``(client, trace, start, stop) ->``
#: the index after the fix that ended the client's silent run.
Advance = Callable[["ClientState", Trace, int, int], int]


class _Lane:
    """One client on its trace, and the index of its next fix."""

    __slots__ = ("client", "trace", "index")

    def __init__(self, client: "ClientState", trace: Trace) -> None:
        self.client = client
        self.trace = trace
        self.index = 0

    def run_to(self, advance: Advance, stop: int) -> None:
        """Take the client along its fixes before ``stop`` (its trace's
        end at most): one silent run and the fix that ends it per call."""
        client, trace, index = self.client, self.trace, self.index
        stop = min(stop, len(trace))
        while index < stop:
            index = advance(client, trace, index, stop)
        self.index = index


def _run_out(advance: Advance, lanes: Iterable[_Lane]) -> None:
    """Each lane to the end of its trace, one vehicle at a time."""
    for lane in lanes:
        lane.run_to(advance, len(lane.trace))


def replay_vehicle_major(strategy: "ProcessingStrategy",
                         traces: TraceSet) -> None:
    """The core replay loop: each vehicle's trace, one client at a time.

    Shared by the serial engine and every shard of the parallel engine —
    determinism of the sharded path reduces to this loop visiting the
    same vehicles in the same order within each contiguous shard.
    """
    from ..strategies.base import ClientState  # local import: avoid cycle

    _run_out(strategy.advance, (_Lane(ClientState(trace.vehicle_id), trace)
                                for trace in traces))


class WorldMutation(Protocol):
    """Alarm churn or target motion, bound to one run's private registry.

    It only mutates, through the registry's install, remove and
    relocate, whose listeners tell the engine every change.
    """

    def apply(self, step: int) -> None:
        """Make step ``step``'s changes to the registry."""


#: Binds a mutation to ``(private registry, sample interval)``: once for
#: the replay and once for its change-feed recording
#: (:func:`record_changes`), each on a fresh clone.
MutationFactory = Callable[[AlarmRegistry, float], WorldMutation]


def _clone_registry(registry: AlarmRegistry) -> AlarmRegistry:
    """A fresh registry with identical alarms and identical ids."""
    clone = AlarmRegistry()
    alarms = registry.all_alarms()
    installed = clone.install_all(alarms)
    assert installed == alarms  # the source's ids were already dense
    return clone


@dataclass
class ChangeFeed:
    """A mutation as the registry's own change feed told it.

    * ``lifetimes``: every alarm as it stood over steps ``[from, to)`` —
      an install opens one, a removal closes one, a move closes one and
      opens the next — which the mutating ground truth sweeps;
    * ``audiences``: for each step that changed an alarm, the users the
      change concerns — the owners and subscribers of the private and
      shared alarms it changed — or ``None`` when it changed a public
      alarm, which concerns everyone.  The replay wakes only these.
    """

    lifetimes: List[Lifetime]
    audiences: Dict[int, Optional[Set[int]]]


def record_changes(registry: AlarmRegistry, traces: TraceSet,
                   mutation: MutationFactory) -> ChangeFeed:
    """Replay ``mutation`` over the traces' steps on a clone of
    ``registry`` and record what the clone's listener heard."""
    registry = _clone_registry(registry)
    bound = mutation(registry, traces.sample_interval)
    alive = {alarm.alarm_id: (alarm, 0) for alarm in registry.all_alarms()}
    feed = ChangeFeed(lifetimes=[], audiences={})
    step = 0

    def changed(alarm_id: int, old_region: Optional[Rect],
                new_region: Optional[Rect]) -> None:
        if old_region is not None:
            alarm, since = alive.pop(alarm_id)
            if since < step:  # else gone within the step it came: never live
                feed.lifetimes.append((alarm, since, step))
        if new_region is not None:
            alarm = registry.get(alarm_id)
            alive[alarm_id] = (alarm, step)
        if alarm.scope is AlarmScope.PUBLIC:
            feed.audiences[step] = None
            return
        audience = feed.audiences.setdefault(step, set())
        if audience is not None:  # else everyone already
            audience.update(alarm.subscriber_set(frozenset()))

    registry.add_listener(changed)
    steps = max((len(trace) for trace in traces), default=0)
    for step in range(steps):
        bound.apply(step)
    registry.remove_listener(changed)  # the clone is freed on return
    feed.lifetimes.extend((alarm, since, steps)
                          for alarm, since in alive.values())
    return feed


#: The alarms a step installed or moved, each with the regions it gained
#: or lost: an install its region, a move the old and the new one.
Touched = List[Tuple[SpatialAlarm, Tuple[Rect, ...]]]


def _stale(client: "ClientState", server: AlarmServer, touched: Touched,
           removed: List[int]) -> bool:
    """Did this step's changes make the client's cached state unsafe?

    A removal: for a client locally holding the alarm (the OPT push
    list), which would otherwise fire it spuriously.  An install or a
    move of an alarm that can still fire for the client: when a gained
    or lost region touches the client's footprint — the area its
    installed state answers for; it reports the moment it leaves it —
    and always for a safe-period timer, whose bound is global and which
    therefore has no footprint.
    """
    if removed and any(record.alarm_id in removed
                       for record in client.local_alarms):
        return True
    footprint = client.footprint
    if footprint is None:
        # Flooding is for timers only: a strategy that installs a region
        # must say what area it covers.
        assert client.bitmap is None and not client.local_alarms
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
    client.bitmap = None
    client.footprint = None
    client.expiry = float("-inf")
    client.local_alarms = []
    client.region_installed_at = None
    # Header-only InvalidateState push; the transport charges its bytes.
    session.transport.push(client.user_id, InvalidateState(), time_s)


def replay_by_audience(strategy: "ProcessingStrategy", traces: TraceSet,
                       server: AlarmServer, mutation: WorldMutation,
                       audiences: Dict[int, Optional[Set[int]]]) -> None:
    """The mutating-world loop: a change wakes only the clients it concerns.

    A client runs through long windows, as in a static world, except
    that it is brought up to every step whose change concerns it (its
    ``audiences`` entry, from :func:`record_changes`): its fixes before
    the step are taken, the mutation makes the step's changes (the loop
    hears them from the server's registry), and the client is pushed an
    invalidation if they made its cached state stale, even after its
    trace has ended.  It re-synchronizes on its fix of that step, the
    earliest sample at which a new or moved alarm could trigger, so the
    accuracy contract extends to mutating worlds; and since a window
    ends at that step, a push never finds probes charged for fixes the
    client has yet to reach.

    This is a replay in timestamp order, counter for counter: every
    query a client makes is filtered by relevance, so a change outside
    its audience cannot alter an answer it gets, and the public R*-tree
    and the public-alarm memo change only at a public alarm's step,
    when every client is brought up.  Each client thus makes the same
    requests against the same index state.  Only the trigger log comes
    out of order; it is sorted once, by (time, lane, alarm id).
    """
    from ..strategies.base import ClientState  # local import: avoid cycle

    lanes = [_Lane(ClientState(trace.vehicle_id), trace) for trace in traces]
    by_user = {lane.client.user_id: lane for lane in lanes}
    woken = {step: lanes if users is None
             else [by_user[user] for user in sorted(users) if user in by_user]
             for step, users in audiences.items()}
    advance = strategy.advance
    session = strategy.session
    touched: Touched = []
    removed: List[int] = []

    def heard(alarm_id: int, old: Optional[Rect], new: Optional[Rect]
              ) -> None:
        if new is None:
            removed.append(alarm_id)
        else:
            regions = (new,) if old is None else (old, new)
            touched.append((server.registry.get(alarm_id), regions))

    server.registry.add_listener(heard)
    for step in range(max((len(trace) for trace in traces), default=0)):
        wake = woken.get(step, ())
        for lane in wake:
            lane.run_to(advance, step)
        del touched[:], removed[:]
        mutation.apply(step)
        if wake and (touched or removed):
            time_s = step * traces.sample_interval
            for lane in wake:
                if _stale(lane.client, server, touched, removed):
                    _invalidate(lane.client, session, time_s)
    server.registry.remove_listener(heard)
    _run_out(advance, lanes)
    lane_of = {user: position for position, user in enumerate(by_user)}
    server.metrics.triggers.sort(key=lambda event: (
        event.time, lane_of[event.user_id], event.alarm_id))


def compute_mutating_ground_truth(world: World,
                                  mutation: MutationFactory) -> GroundTruth:
    """Expected triggers, every alarm taken as it stands at each step.

    The alarm lifetimes of the mutation's change feed
    (:func:`record_changes`) are swept along the traces (the per-step
    point-query scan this replaces is the oracle in
    ``tests/engine/test_groundtruth.py``).
    """
    feed = record_changes(world.registry, world.traces, mutation)
    return sweep_lifetimes(feed.lifetimes, world.traces)


#: Connects a strategy's client half to the server for the length of a
#: replay; yields the client side's own ``Metrics`` if it keeps one (the
#: socket link does: the daemon thread owns the server's).
Link = Callable[[AlarmServer, "ProcessingStrategy"],
                ContextManager[Optional[Metrics]]]


@contextmanager
def in_process_link(server: AlarmServer, strategy: "ProcessingStrategy",
                    transport_factory: Optional[TransportFactory] = None
                    ) -> Iterator[None]:
    """The link of every engine but the socket one: :func:`connect`."""
    connect(server, strategy, transport_factory)
    yield


def replay(registry: AlarmRegistry, grid: GridOverlay, traces: TraceSet,
           strategy: "ProcessingStrategy", link: Link,
           telemetry: Telemetry = DISABLED,
           mutation: Optional[Tuple[MutationFactory, ChangeFeed]] = None
           ) -> Tuple[Metrics, float]:
    """One server, one linked strategy, one loop: (metrics, wall time).

    The unscored core of every run: the world's whole trace set, or one
    shard's slice in a parallel worker.  A mutating world comes with
    the change feed :func:`record_changes` recorded for it, whose
    audiences the loop wakes.
    """
    metrics = Metrics()
    server = AlarmServer(registry, grid, metrics, telemetry=telemetry)
    if telemetry.enabled:
        telemetry.shard_started(len(traces))
    started = time.perf_counter()
    try:
        with link(server, strategy) as client_metrics:
            if mutation is None:
                replay_vehicle_major(strategy, traces)
            else:
                factory, feed = mutation
                replay_by_audience(
                    strategy, traces, server,
                    factory(registry, traces.sample_interval),
                    feed.audiences)
    finally:
        server.close()
    wall_time = time.perf_counter() - started
    if telemetry.enabled:
        telemetry.shard_finished(len(traces), wall_time)
    if client_metrics is not None:
        # The two sides charge disjoint fields, so the parallel
        # engine's exact-sum merge recombines them losslessly.
        metrics = Metrics.merged([metrics, client_metrics])
    return metrics, wall_time


def score_run(world: World, strategy_name: str, metrics: Metrics,
              wall_time: float,
              ground_truth: Optional[Callable[[], GroundTruth]] = None,
              workers: int = 1) -> SimulationResult:
    """Close a run: accuracy and the result value."""
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
                mutation: Optional[MutationFactory] = None,
                ground_truth: Optional[Callable[[], GroundTruth]] = None
                ) -> SimulationResult:
    """Replay the whole world in this process and score the run.

    With a ``mutation`` the run works on a clone of the registry, so the
    world is untouched.  Its change feed is recorded once, before the
    replay: the loop wakes its audiences, and unless ``ground_truth`` is
    given the run is scored against the sweep of its lifetimes (what
    :func:`compute_mutating_ground_truth` returns for the mutation).
    """
    telemetry = telemetry if telemetry is not None else DISABLED
    registry = world.registry
    changes: Optional[Tuple[MutationFactory, ChangeFeed]] = None
    if mutation is not None:
        registry = _clone_registry(registry)
        feed = record_changes(registry, world.traces, mutation)
        changes = (mutation, feed)
        if ground_truth is None:
            ground_truth = functools.partial(sweep_lifetimes,
                                             feed.lifetimes, world.traces)
    metrics, wall_time = replay(
        registry, world.grid, world.traces, strategy, link,
        telemetry=telemetry, mutation=changes)
    return score_run(world, strategy.name, metrics, wall_time,
                     ground_truth=ground_truth)


def run_simulation(world: World, strategy: "ProcessingStrategy",
                   telemetry: Optional[Telemetry] = None,
                   transport_factory: Optional[TransportFactory] = None,
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
    attribute check.
    """
    return run_session(world, strategy,
                       functools.partial(in_process_link,
                                         transport_factory=transport_factory),
                       telemetry=telemetry)
