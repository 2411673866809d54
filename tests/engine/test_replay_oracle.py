"""The replay loops against their per-fix definition.

``ProcessingStrategy.advance`` scans a client's silent run over the
trace's columns and charges it in one call; the engines hand it a whole
trace (vehicle-major) or the fixes up to the next step whose alarm
change concerns the client (by audience).  Its definition is the loop
it replaced — :func:`reference_replay` below, one fix per call, every
client stepped in timestamp order under a mutation — in two forms:

* *one-fix windows*: ``advance(client, trace, i, i + 1)`` for every
  ``i``.  Whatever a scan does, it must not depend on how its caller
  windows the trace.
* *the paper's client* (:data:`PAPER_CLIENTS`): what the device does on
  one position fix, written out on the public value types
  (:class:`TraceSample`, ``Rect.contains_point``, ``PyramidBitmap.probe``
  of a ``Point``) and charged one probe at a time.  It shares no scan,
  no comparison and no charge arithmetic with the shipped clients.

Both must agree with the shipped loops on every deterministic counter,
the trigger sequence and every client's final state, for all six
strategies on static, scheduled and tracking worlds — the scheduled
ones with shared alarms, owners who have no trace, removals in their
install's step and removals of alarms already gone, and changes after
a client's trace has ended.  The seeded mutations at the end are the
suite's own test: each is a plausible slip in a scan loop or in the
loop that wakes a change's audience, and each must be caught.  The
shipped loops run pinned and wire-verified (``tests/oracles.py``).
"""

import functools
import importlib
import inspect
import math
import sys
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.simulation as session
from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import (AlarmSchedule, AlarmServer, InstallAction, Metrics,
                          RemoveAction, TargetTrack, World)
from repro.engine.dynamic import ScheduleMutation
from repro.engine.tracking import TrackMutation
from repro.geometry import Point, Rect
from repro.index import CellId, GridOverlay
from repro.mobility import Trace, TraceSample, TraceSet
from repro.protocol.messages import (AlarmNotification, InstallAlarmList,
                                     InstallSafePeriod, InstallSafeRegion,
                                     LocationReport, RegionExitReport)
from repro.protocol.transport import connect
from repro.protocol.wire import unpack_cell_ref
from repro.saferegion import PBSRComputer, PyramidBitmap
from repro.strategies import BitmapSafeRegionStrategy
from repro.strategies import base as strategies_base
from repro.strategies.base import ClientState
from ..budget import deep
from ..oracles import (run_dynamic_simulation, run_simulation,
                       run_tracking_simulation)
from ..saferegion.test_bitmap_oracle import mutant_bitmap
from ..strategies.conftest import make_world
from .test_golden_mutation import golden_schedule, golden_track
from .test_golden_protocol import STRATEGY_NAMES, _factory


# ----------------------------------------------------------------------
# The definition: one fix per call
# ----------------------------------------------------------------------
def one_fix_window(strategy, client, trace, index):
    """The shipped client, shown a single fix."""
    assert strategy.advance(client, trace, index, index + 1) == index + 1


def reference_replay(world, strategy, mutation=None, fix=one_fix_window):
    """``(metrics, clients)`` of a replay that hands ``fix`` one fix at
    a time: vehicle-major over a static world, time-major — mutate,
    push-invalidate the stale, then every client's fix of the step —
    under a ``mutation`` (a ``MutationFactory``), whose changes it hears
    from its registry's listeners.  The clients are returned as they
    ended, in trace order."""
    registry = world.registry
    if mutation is not None:
        registry = session._clone_registry(registry)
    metrics = Metrics()
    server = AlarmServer(registry, world.grid, metrics, sizes=world.sizes)
    connect(server, strategy)
    traces = world.traces
    clients = {trace.vehicle_id: ClientState(trace.vehicle_id)
               for trace in traces}
    try:
        if mutation is None:
            for trace in traces:
                for index in range(len(trace)):
                    fix(strategy, clients[trace.vehicle_id], trace, index)
            return metrics, list(clients.values())
        bound = mutation(registry, traces.sample_interval)
        touched, removed = [], []

        def heard(alarm_id, old, new):
            if new is None:
                removed.append(alarm_id)
                return
            regions = tuple(region for region in (old, new)
                            if region is not None)
            touched.append((registry.get(alarm_id), regions))

        registry.add_listener(heard)
        for step in range(max((len(trace) for trace in traces), default=0)):
            del touched[:], removed[:]
            bound.apply(step)
            if touched or removed:
                for client in clients.values():
                    if session._stale(client, server, touched, removed):
                        session._invalidate(client, strategy.session,
                                            step * traces.sample_interval)
            for trace in traces:
                if step < len(trace):
                    fix(strategy, clients[trace.vehicle_id], trace, step)
    finally:
        server.close()
    return metrics, list(clients.values())


# ----------------------------------------------------------------------
# The paper's client, one position fix at a time
# ----------------------------------------------------------------------
def _report(strategy, client, sample, exit=False):
    request_type = RegionExitReport if exit else LocationReport
    request = request_type(user_id=client.user_id, sequence=client.sequence,
                           position=sample.position, heading=sample.heading,
                           speed=sample.speed)
    client.sequence += 1
    return strategy.session.send(request, sample.time)


def periodic_fix(strategy, client, sample):
    _report(strategy, client, sample)


def safeperiod_fix(strategy, client, sample):
    strategy.session.charge_probe(1)  # the timer comparison
    if sample.time < client.expiry:
        return
    strategy._note_region_exit(client, sample.time)
    for message in _report(strategy, client, sample, exit=True):
        if isinstance(message, InstallSafePeriod):
            client.expiry = message.expiry
            strategy._mark_region_installed(client, sample.time)


def _renew_rectangle(strategy, client, sample):
    """Exit report; the shipped rectangle, or ``None``."""
    rect = None
    for message in _report(strategy, client, sample, exit=True):
        if isinstance(message, InstallSafeRegion):
            rect = message.rect
            client.footprint = rect
            strategy._mark_region_installed(client, sample.time)
    return rect


def rectangular_fix(strategy, client, sample):
    if client.footprint is not None:
        strategy.session.charge_probe(1)  # one rectangle comparison
        if client.footprint.contains_point(sample.position):
            return
        strategy._note_region_exit(client, sample.time)
    _renew_rectangle(strategy, client, sample)


def adaptive_fix(strategy, client, sample):
    if client.footprint is not None and sample.time < client.expiry:
        return  # provably still inside: not even a probe
    if client.footprint is not None:
        strategy.session.charge_probe(1)  # one rectangle comparison
        if client.footprint.contains_point(sample.position):
            slack = client.footprint.boundary_distance(sample.position)
            client.expiry = sample.time + slack / strategy.max_speed
            return
        strategy._note_region_exit(client, sample.time)
    rect = _renew_rectangle(strategy, client, sample)
    if rect is not None:
        client.expiry = sample.time + (
            rect.boundary_distance(sample.position) / strategy.max_speed)


def _install_bitmap(strategy, client, sample, reply):
    for message in reply:
        if isinstance(message, InstallSafeRegion):
            col, row = unpack_cell_ref(message.cell_ref)
            client.footprint = strategy.session.grid.cell_rect(
                CellId(col, row))
            client.bitmap = message.bitmap
            strategy._mark_region_installed(client, sample.time)


def bitmap_fix(strategy, client, sample):
    if (client.footprint is not None
            and client.footprint.contains_point(sample.position)):
        inside, ops = client.bitmap.probe(sample.position)
        strategy.session.charge_probe(ops)
        if not inside:  # unsafe area within the cell: plain report
            _install_bitmap(strategy, client, sample,
                            _report(strategy, client, sample))
        return
    strategy._note_region_exit(client, sample.time)
    _install_bitmap(strategy, client, sample,
                    _report(strategy, client, sample, exit=True))


def optimal_fix(strategy, client, sample):
    if (client.footprint is None
            or not client.footprint.contains_point(sample.position)):
        strategy._note_region_exit(client, sample.time)
        for message in _report(strategy, client, sample, exit=True):
            if isinstance(message, InstallAlarmList):
                client.footprint = message.cell
                client.local_alarms = list(message.alarms)
                strategy._mark_region_installed(client, sample.time)
        return
    entered = [record for record in client.local_alarms
               if record.region.interior_contains_point(sample.position)]
    strategy.session.charge_probe(1 + len(client.local_alarms))
    if entered:
        fired = {message.alarm_id
                 for message in _report(strategy, client, sample)
                 if isinstance(message, AlarmNotification)}
        client.local_alarms = [record for record in client.local_alarms
                               if record.alarm_id not in fired]


def _on_views(fix):
    """A per-sample client as a ``fix`` of :func:`reference_replay`."""
    return lambda strategy, client, trace, index: fix(strategy, client,
                                                      trace[index])


PAPER_CLIENTS = {"periodic": _on_views(periodic_fix),
                 "safeperiod": _on_views(safeperiod_fix),
                 "rectangular": _on_views(rectangular_fix),
                 "bitmap": _on_views(bitmap_fix),
                 "adaptive": _on_views(adaptive_fix),
                 "optimal": _on_views(optimal_fix)}
assert tuple(PAPER_CLIENTS) == STRATEGY_NAMES


# ----------------------------------------------------------------------
# Shipped loops == one-fix windows == the paper's client
# ----------------------------------------------------------------------
def snapshot(client):
    """A client's state as comparable values."""
    bitmap = client.bitmap
    if bitmap is not None:
        bitmap = (bitmap.pyramid.base, bitmap.to_bitstring())
    return (client.user_id, client.sequence, bitmap, client.footprint,
            client.expiry, client.local_alarms, client.region_installed_at)


def observed(metrics, clients, without=()):
    """Counters (but those named in ``without``), triggers, clients."""
    counters = metrics.counters()
    for name in without:
        del counters[name]
    return (counters, metrics.triggers,
            sorted(snapshot(client) for client in clients))


@pytest.fixture
def shipped_clients(monkeypatch):
    """Every ``ClientState`` the shipped loops create, as they end."""
    made = []

    class Recorded(ClientState):
        __slots__ = ()

        def __init__(self, user_id):
            super().__init__(user_id)
            made.append(self)

    monkeypatch.setattr(strategies_base, "ClientState", Recorded)
    return made


def schedule_kind(schedule):
    return (functools.partial(ScheduleMutation, schedule),
            lambda world, strategy: run_dynamic_simulation(world, strategy,
                                                           schedule))


def track_kind(tracks):
    return (functools.partial(TrackMutation, tracks),
            lambda world, strategy: run_tracking_simulation(world, strategy,
                                                            tracks))


STATIC = (None, run_simulation)


def assert_loops_agree(world, name, kind, shipped_clients, make=None):
    """The shipped loop of ``kind`` against both per-fix references."""
    mutation, run = kind
    make = make or _factory(name, world.max_speed())
    del shipped_clients[:]
    shipped = observed(run(world, make()).metrics, shipped_clients)
    windows = observed(*reference_replay(world, make(), mutation))
    assert shipped == windows, "the scan depends on its window"
    defined = observed(*reference_replay(world, make(), mutation,
                                         fix=PAPER_CLIENTS[name]))
    assert shipped == defined, "the scan is not the paper's client"


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestGoldenWorlds:
    def test_static(self, world, name, shipped_clients):
        assert_loops_agree(world, name, STATIC, shipped_clients)

    def test_schedule_mutation(self, world, name, shipped_clients):
        assert_loops_agree(world, name, schedule_kind(golden_schedule(world)),
                           shipped_clients)

    def test_track_mutation(self, world, name, shipped_clients):
        assert_loops_agree(world, name, track_kind([golden_track(world)]),
                           shipped_clients)


@pytest.fixture(scope="module")
def fleet():
    """The benchmark's own ``fleet`` world, at a seed it is run with."""
    worlds = pytest.importorskip("bench_e2e.worlds")
    from repro.experiments.configs import build_world
    return build_world(worlds.world_config("fleet", 3))


def _bench_strategy(name, max_speed):
    """``bench_e2e/workloads.py``'s MWPSR and PBSR, else the golden one."""
    from repro.experiments import make_mwpsr_strategy, make_pbsr_strategy
    if name == "rectangular":
        return make_mwpsr_strategy(z=32)
    if name == "bitmap":
        return make_pbsr_strategy(5)
    return _factory(name, max_speed)()


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_bench_fleet(fleet, name, shipped_clients):
    assert_loops_agree(fleet, name, STATIC, shipped_clients,
                       functools.partial(_bench_strategy, name,
                                         fleet.max_speed()))


def test_bench_fleet_churn(fleet, shipped_clients):
    """``churn_mwpsr``'s own schedule (its quick size in tier-1, its full
    one under ``REPRO_DEEP=1``) on the fleet, under its MWPSR(z=32)."""
    worlds = pytest.importorskip("bench_e2e.worlds")
    schedule = worlds.churn_schedule(fleet, worlds.world_config("fleet", 3),
                                     3, quick=not deep())
    assert_loops_agree(fleet, "rectangular", schedule_kind(schedule),
                       shipped_clients,
                       functools.partial(_bench_strategy, "rectangular",
                                         fleet.max_speed()))


# ----------------------------------------------------------------------
# Adversarial traces: on, along and across every edge a client tests
# ----------------------------------------------------------------------
#: A 3 x 3 grid of 9 m cells; a height-2 pyramid over a cell has its
#: level-1 edges on multiples of 3 and its leaf edges on every integer,
#: all exact in floating point.  Alarm edges sit on integers too, so the
#: MWPSR rectangles they bound do as well.
UNIVERSE = Rect(0.0, 0.0, 27.0, 27.0)
CELL_AREA_KM2 = 81e-6
HEIGHT = 2
#: Slow enough that a timer set from an integer or half-integer distance
#: expires exactly on a fix as often as between two.
MAX_SPEED = 0.5
USERS = (0, 1, 2)
#: A user who owns or shares alarms but has no trace.
GHOST = 7


def edge_world(positions_by_user, alarms):
    """A world over the lattice; ``alarms`` are ``(region, scope, owner)``
    or, shared, ``(region, scope, owner, subscribers)``."""
    registry = AlarmRegistry(max_tree_entries=4)
    for region, scope, owner, *subscribers in alarms:
        registry.install(region, scope, owner, *subscribers)
    traces = {user: Trace(user, [TraceSample(float(k), point, 0.0, MAX_SPEED)
                                 for k, point in enumerate(positions)])
              for user, positions in positions_by_user.items()}
    return World(universe=UNIVERSE,
                 grid=GridOverlay(UNIVERSE, CELL_AREA_KM2),
                 registry=registry, traces=TraceSet(traces, 1.0))


def edge_strategy(name):
    if name == "bitmap":
        return BitmapSafeRegionStrategy(PBSRComputer(height=HEIGHT))
    return _factory(name, MAX_SPEED)()


@st.composite
def coordinates(draw):
    """On a lattice edge, one ulp either side of it, or clear of all
    (and never off the universe: a client there has no cell)."""
    edge = float(draw(st.integers(0, 27)))
    return min(max(draw(st.sampled_from(
        [edge, math.nextafter(edge, math.inf),
         math.nextafter(edge, -math.inf), edge + 0.5])), 0.0), 27.0)


@st.composite
def walks(draw):
    """Fixes that cross edges, park on them and slide along them."""
    positions = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(coordinates()), draw(coordinates())
        kind = draw(st.sampled_from(["hop", "park", "slide", "slide"]))
        if kind == "hop":
            positions.append(Point(x, y))
        elif kind == "park":
            positions.extend([Point(x, y)] * draw(st.integers(2, 12)))
        else:  # hold x on (or beside) its edge, walk y over the lattice
            step = draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]))
            positions.extend(Point(x, min(max(y + k * step, 0.0), 27.0))
                             for k in range(draw(st.integers(2, 12))))
    if draw(st.booleans()):  # the same walk along the other axis
        positions = [Point(p.y, p.x) for p in positions]
    return positions


@st.composite
def lattice_alarms(draw):
    """``(region, scope, owner, subscribers)``: public, private or shared
    with several subscribers, owned by anyone — the ghost too."""
    x, y = draw(st.integers(0, 26)), draw(st.integers(0, 26))
    region = Rect(x, y, min(27.0, x + draw(st.sampled_from([0, 1, 3, 5, 9]))),
                  min(27.0, y + draw(st.sampled_from([0, 1, 3, 5, 9]))))
    scope = draw(st.sampled_from(list(AlarmScope)))
    owner = draw(st.sampled_from(USERS + (GHOST,)))
    subscribers = ()
    if scope is AlarmScope.SHARED:
        subscribers = tuple(sorted(draw(st.sets(
            st.sampled_from([user for user in USERS + (GHOST,)
                             if user != owner]), min_size=2))))
    return region, scope, owner, subscribers


@st.composite
def edge_worlds(draw):
    return edge_world({user: draw(walks()) for user in USERS},
                      draw(st.lists(lattice_alarms(), max_size=10)))


@st.composite
def kinds(draw, world):
    """Static, or a schedule, or a target hopping over the lattice.

    A schedule's actions fall anywhere in the longest trace, so many
    land after a shorter trace has ended; removals go by install index
    (in the install's own step, too) or by id (of an alarm that may be
    gone already)."""
    choice = draw(st.sampled_from(["static", "schedule", "track"]))
    if choice == "static":
        return STATIC
    longest = max(len(trace) for trace in world.traces)
    times = st.integers(0, 2 * max(longest, 20)).map(lambda k: k / 2.0)
    if choice == "track":
        if not len(world.registry):
            return STATIC
        target = draw(st.integers(0, len(world.registry) - 1))
        regions = [world.registry.get(target).region]
        regions += [draw(lattice_alarms())[0]
                    for _ in range(draw(st.integers(1, 8)))]
        # each region held for a few steps, so that clients settle
        held = [region for region in regions
                for _ in range(draw(st.integers(1, 6)))]
        return track_kind([TargetTrack(target, tuple(held))])
    # in schedule order, which is what an install index counts in
    installs = sorted((InstallAction(draw(times), region, scope, owner,
                                     subscribers)
                       for region, scope, owner, subscribers
                       in draw(st.lists(lattice_alarms(), max_size=6))),
                      key=lambda action: action.time)
    actions = list(installs)
    for index in draw(st.lists(st.integers(0, len(installs) - 1),
                               max_size=3) if installs else st.just([])):
        # at its install's time or after: the stable time sort keeps the
        # removal behind the install it refers to
        actions.append(RemoveAction(
            installs[index].time + draw(st.sampled_from([0.0, 0.5, 3.0])),
            install_index=index))
    for alarm_id in draw(st.lists(  # repeats remove an alarm already gone
            st.integers(0, max(0, len(world.registry) - 1)), max_size=3)):
        actions.append(RemoveAction(draw(times), alarm_id=alarm_id))
    return schedule_kind(AlarmSchedule(actions))


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestAdversarialTraces:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_property_edge_worlds(self, name, shipped_clients, data):
        world = data.draw(edge_worlds())
        kind = data.draw(kinds(world))
        assert_loops_agree(world, name, kind, shipped_clients,
                           functools.partial(edge_strategy, name))

    def test_fixed_edge_world(self, name, shipped_clients):
        for kind in FIXED_KINDS:
            assert_loops_agree(FIXED_WORLD, name, kind, shipped_clients,
                               functools.partial(edge_strategy, name))


def _fixed_world():
    """Every adversarial move once, deterministically: what the seeded
    mutations below are run on."""
    along_x = [Point(0.5 * k, 4.5) for k in range(55)]  # crosses everything
    # up an alarm's edge (and a level-1 pyramid edge), one fix per leaf edge
    slide = [Point(3.0, 0.5 * k) for k in range(40)]
    park = ([Point(9.0, 9.0)] * 6          # on a corner of four cells
            + [Point(9.0 + 0.5 * k, 9.0 + 0.5 * k) for k in range(1, 14)]
            + [Point(15.5, 15.5)] * 9)     # ends parked, mid-run
    brief = [Point(20.5, 20.5)] * 3        # ends before its first timer
    # up out of the unsafe leaf row an alarm's top edge (y = 4.5) cuts,
    # through a leaf's top edge (y = 5) once and never back down
    rise = [Point(19.5, 4.5 + 0.25 * k) for k in range(8)]
    alarms = [(Rect(3.0, 2.0, 6.0, 7.0), AlarmScope.PUBLIC, 0),
              (Rect(12.0, 3.0, 13.0, 5.0), AlarmScope.PUBLIC, 0),
              (Rect(3.0, 12.0, 8.0, 15.0), AlarmScope.PRIVATE, 1),
              (Rect(12.0, 12.0, 14.0, 14.0), AlarmScope.PUBLIC, 2),
              (Rect(18.0, 0.0, 27.0, 4.5), AlarmScope.PUBLIC, 0),
              (Rect(22.0, 22.0, 22.0, 26.0), AlarmScope.PUBLIC, 0)]
    return edge_world({0: along_x, 1: slide, 2: park, 3: brief, 4: rise},
                      alarms)


FIXED_WORLD = _fixed_world()
FIXED_KINDS = (
    STATIC,
    schedule_kind(AlarmSchedule([
        InstallAction(4.0, Rect(6.0, 4.0, 9.0, 5.0), AlarmScope.PUBLIC, 0),
        InstallAction(9.5, Rect(0.0, 9.0, 3.0, 12.0), AlarmScope.PRIVATE, 1),
        InstallAction(12.0, Rect(14.0, 14.0, 16.0, 16.0),
                      AlarmScope.PUBLIC, 2),
        RemoveAction(20.0, alarm_id=1),
        RemoveAction(15.0, install_index=0)])),
    track_kind([TargetTrack(3, tuple(
        Rect(12.0 + k // 3, 12.0 + k // 3, 14.0 + k // 3, 14.0 + k // 3)
        for k in range(18)))]),
    # shared alarms (one the ghost's), one removed in its install's step,
    # a removal of an alarm already gone; clients 3 and then 2 out of fixes
    schedule_kind(AlarmSchedule([
        InstallAction(10.0, Rect(2.0, 8.0, 5.0, 11.0), AlarmScope.SHARED,
                      GHOST, subscribers=(1, 2)),
        InstallAction(12.0, Rect(15.0, 15.0, 16.0, 16.0), AlarmScope.SHARED,
                      0, subscribers=(2, 3)),
        InstallAction(14.0, Rect(20.0, 20.0, 21.0, 21.0), AlarmScope.PRIVATE,
                      3),
        RemoveAction(14.0, install_index=2),
        RemoveAction(16.0, alarm_id=2),
        RemoveAction(18.0, alarm_id=2),
        InstallAction(30.0, Rect(15.0, 16.0, 16.0, 17.0), AlarmScope.PUBLIC,
                      1)])),
)


# ----------------------------------------------------------------------
# The suite's own test: seeded slips in the scan loops
# ----------------------------------------------------------------------
RECT_SCAN = ("while (index < stop and min_x <= xs[index] <= max_x\n"
             "                   and min_y <= ys[index] <= max_y):")

#: ``(strategy, what slipped, shipped source, mutated source)``.
MUTATIONS = [
    ("rectangular", "scan stops one fix early",
     "while (index < stop and min_x", "while (index < stop - 1 and min_x"),
    ("rectangular", "scan stops one fix late",
     "while (index < stop and min_x", "while (index <= stop and min_x"),
    ("rectangular", "closed test made open",
     RECT_SCAN, RECT_SCAN.replace("<=", "<")),
    ("rectangular", "run charged n + 1",
     "probes = index - start + (index < stop)", "probes = index - start + 1"),
    ("rectangular", "run charged n - 1",
     "probes = index - start + (index < stop)",
     "probes = index - start - 1 + (index < stop)"),
    ("rectangular", "failing probe not charged",
     "probes = index - start + (index < stop)", "probes = index - start"),
    ("safeperiod", "bisect_left -> bisect_right",
     "index = bisect_left(", "index = bisect_right("),
    ("safeperiod", "failing probe not charged",
     "probes = index - start + (index < stop)", "probes = index - start"),
    ("adaptive", "bisect_left -> bisect_right",
     "index = bisect_left(", "index = bisect_right("),
    ("adaptive", "closed test made open",
     "if not (min_x <= x <= max_x and min_y <= y <= max_y):",
     "if not (min_x < x < max_x and min_y < y < max_y):"),
    ("adaptive", "failing probe not charged",
     "                probes += 1\n"
     "                if not (min_x <= x <= max_x and min_y <= y <= max_y):\n"
     "                    break\n",
     "                if not (min_x <= x <= max_x and min_y <= y <= max_y):\n"
     "                    break\n"
     "                probes += 1\n"),
    ("bitmap", "closed cell test made open",
     "if not (min_x <= x <= max_x and min_y <= y <= max_y):",
     "if not (min_x < x < max_x and min_y < y < max_y):"),
    ("bitmap", "failing probe not charged",  # the walk to an unsafe block
     "                probes += index - entered\n"
     "                ops += (index - entered) * levels\n",
     "                probes += index - entered - (not inside)\n"
     "                ops += (index - entered - (not inside)) * levels\n"),
    ("bitmap", "scan stops one fix early",
     "while index < stop:", "while index < stop - 1:"),
    ("optimal", "open alarm test made closed",
     "if box_min_x < x < box_max_x and box_min_y < y < box_max_y:",
     "if box_min_x <= x <= box_max_x and box_min_y <= y <= box_max_y:"),
    ("optimal", "closed cell test made open",
     "if not (min_x <= x <= max_x and min_y <= y <= max_y):",
     "if not (min_x < x < max_x and min_y < y < max_y):"),
    ("optimal", "triggering fix not charged",
     "evaluated = index - start + entered", "evaluated = index - start"),
]


def mutant_factory(name, shipped, mutated):
    """``edge_strategy(name)``, its module's source edited and re-run."""
    shipped_class = type(edge_strategy(name))
    module = importlib.import_module(shipped_class.__module__)
    source = inspect.getsource(module)
    assert source.count(shipped) == 1, "the mutation site moved"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__dict__.update(__package__=module.__package__, math=math,
                           bisect_right=__import__("bisect").bisect_right)
    exec(compile(source.replace(shipped, mutated), module.__file__, "exec"),
         mutant.__dict__)
    mutant_class = getattr(mutant, shipped_class.__name__)

    def make():
        strategy = edge_strategy(name)
        strategy.__class__ = mutant_class
        return strategy
    return make


@pytest.mark.parametrize("name,what,shipped,mutated", MUTATIONS,
                         ids=["%s: %s" % row[:2] for row in MUTATIONS])
def test_seeded_mutation_is_caught(name, what, shipped, mutated,
                                   shipped_clients):
    make = mutant_factory(name, shipped, mutated)
    with pytest.raises((AssertionError, IndexError)):
        for kind in FIXED_KINDS:
            assert_loops_agree(FIXED_WORLD, name, kind, shipped_clients, make)


# ----------------------------------------------------------------------
# Seeded slips in the bitmap client's block scan
# ----------------------------------------------------------------------
#: ``(what slipped, site, shipped source, mutated source)``: the site is
#: the strategy's ``advance`` (``"scan"``) or ``PyramidBitmap.walk``,
#: which hands the scan its block, safe or unsafe (``"walk"``).  The
#: last-column clip is the walk's ``hi`` bound that keeps a fix on the
#: base cell's closed right edge in the last column.  The scan reports
#: every fix of an unsafe block until a reply installs a bitmap.
BLOCK_MUTATIONS = [
    ("block closed on its right edge", "scan",
     "block_min_x <= xs[index] < block_max_x",
     "block_min_x <= xs[index] <= block_max_x"),
    ("block closed on its top edge", "scan",
     "block_min_y <= ys[index] < block_max_y",
     "block_min_y <= ys[index] <= block_max_y"),
    ("last-column clip dropped", "walk",
     "col = bisect_right(xs, x, col0 + 1, col0 + fan_cols) - 1",
     "col = bisect_right(xs, x, col0 + 1) - 1"),
    ("block taken from the parent level", "walk",
     "_block(xs, ys, col, row)",
     "_block(x_edges[max(level - 1, 0)], y_edges[max(level - 1, 0)],"
     " col // fan_cols, row // fan_rows)"),
    ("block fix charged 1 instead of its levels", "scan",
     "ops += (index - entered) * levels", "ops += index - entered"),
    ("bisect_left for bisect_right", "walk",
     "col = bisect_right(xs, x, col0 + 1, col0 + fan_cols) - 1",
     "col = bisect_left(xs, x, col0 + 1, col0 + fan_cols) - 1"),
    ("unsafe run continues past an install", "scan",
     "                            index = fix + 1\n"
     "                            break\n",
     "                            pass\n"),
    ("unsafe block closed on its right edge", "scan",
     "block_min_x, block_min_y, block_max_x, block_max_y = block\n",
     "block_min_x, block_min_y, block_max_x, block_max_y = block\n"
     "                if not inside:\n"
     "                    block_max_x = math.nextafter(block_max_x,"
     " math.inf)\n"),
    ("unsafe report charged no probe", "scan",
     "                probes += index - entered\n",
     "                probes += (index - entered) * inside\n"),
]


@pytest.mark.parametrize("what,site,shipped,mutated", BLOCK_MUTATIONS,
                         ids=[row[0] for row in BLOCK_MUTATIONS])
def test_seeded_block_slip_is_caught(what, site, shipped, mutated,
                                     shipped_clients, monkeypatch):
    """The slipped client, in the shipped loop and in one-fix windows,
    against the paper's, whose per-fix probe walks with the shipped
    ``PyramidBitmap.walk``."""
    if site == "scan":
        make = mutant_factory("bitmap", shipped, mutated)
        walk = PyramidBitmap.walk
    else:
        make = functools.partial(edge_strategy, "bitmap")
        walk = mutant_bitmap(shipped, mutated, 1).walk
    with pytest.raises((AssertionError, IndexError)):
        for mutation, run in FIXED_KINDS:
            del shipped_clients[:]
            with monkeypatch.context() as patch:
                patch.setattr(PyramidBitmap, "walk", walk)
                slipped = observed(run(FIXED_WORLD, make()).metrics,
                                   shipped_clients)
                windowed = observed(*reference_replay(FIXED_WORLD, make(),
                                                      mutation))
            defined = observed(*reference_replay(
                FIXED_WORLD, make(), mutation, fix=PAPER_CLIENTS["bitmap"]))
            assert slipped == defined
            assert windowed == defined


@pytest.mark.parametrize("kind", FIXED_KINDS,
                         ids=["static", "schedule", "track", "shared"])
def test_top_edge_slip_shows_in_what_the_client_reports(kind,
                                                         shipped_clients):
    """``block closed on its top edge``, caught on every kind without
    ``index_node_accesses``: ``rise`` crosses a leaf's top edge upward
    only, so the report the slip adds there has no dropped report at
    another top edge to cancel it in the uplinks and client sequences."""
    mutation, run = kind
    _, _, shipped, mutated = next(row for row in BLOCK_MUTATIONS
                                  if row[0] == "block closed on its top edge")
    make = mutant_factory("bitmap", shipped, mutated)
    without = ("index_node_accesses",)
    del shipped_clients[:]
    slipped = observed(run(FIXED_WORLD, make()).metrics, shipped_clients,
                       without)
    defined = observed(*reference_replay(FIXED_WORLD, make(), mutation,
                                         fix=PAPER_CLIENTS["bitmap"]),
                       without)
    assert slipped != defined


# ----------------------------------------------------------------------
# Seeded slips in the loop that wakes a change's audience
# ----------------------------------------------------------------------
#: ``(what slipped, shipped source, mutated source)`` in
#: ``repro/engine/simulation.py``: ``record_changes``, which names who a
#: step's change concerns, and ``replay_by_audience``, which wakes them.
LOOP_SLIPS = [
    ("audience drops the shared subscribers",
     "audience.update(alarm.subscriber_set(frozenset()))",
     "audience.add(alarm.owner_id)"),
    ("clients synchronised to step + 1",
     "lane.run_to(advance, step)\n", "lane.run_to(advance, step + 1)\n"),
    ("ended lanes skipped in the stale check",
     "if _stale(lane.client, server, touched, removed):",
     "if (lane.index < len(lane.trace)\n"
     "                            and _stale(lane.client, server, touched,\n"
     "                                       removed)):"),
    ("trigger log left unsorted",
     "server.metrics.triggers.sort(key=",
     "sorted(server.metrics.triggers, key="),
]


def mutant_session(shipped, mutated, monkeypatch):
    """``repro.engine.simulation``, its source edited and re-run (as a
    module of its own, which its dataclasses look themselves up in)."""
    source = inspect.getsource(session)
    assert source.count(shipped) == 1, "the mutation site moved"
    mutant = types.ModuleType(session.__name__ + "_mutant")
    mutant.__dict__.update(__package__=session.__package__)
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(shipped, mutated), session.__file__, "exec"),
         mutant.__dict__)
    return mutant


@pytest.mark.parametrize("what,shipped,mutated", LOOP_SLIPS,
                         ids=[row[0] for row in LOOP_SLIPS])
def test_seeded_loop_slip_is_caught(what, shipped, mutated, shipped_clients,
                                    monkeypatch):
    """Every engine front records its change feed and replays through
    the slipped session's ``record_changes`` and ``replay``; the per-fix
    references keep the shipped ``_stale``."""
    mutant = mutant_session(shipped, mutated, monkeypatch)
    monkeypatch.setattr(session, "record_changes", mutant.record_changes)
    monkeypatch.setattr(session, "replay", mutant.replay)
    with pytest.raises(AssertionError):
        for name in STRATEGY_NAMES:
            for kind in FIXED_KINDS[1:]:
                assert_loops_agree(FIXED_WORLD, name, kind, shipped_clients,
                                   functools.partial(edge_strategy, name))
