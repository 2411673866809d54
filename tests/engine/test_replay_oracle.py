"""The replay loops against their per-fix definition.

``ProcessingStrategy.advance`` scans a client's silent run over the
trace's columns and charges it in one call; the engines hand it a whole
trace (vehicle-major) or one fix (time-major).  Its definition is the
loop it replaced — :func:`reference_replay` below, one fix per call —
in two forms:

* *one-fix windows*: ``advance(client, trace, i, i + 1)`` for every
  ``i``.  Whatever a scan does, it must not depend on how its caller
  windows the trace.
* *the paper's client* (:data:`PAPER_CLIENTS`): what the device does on
  one position fix, written out on the public value types
  (:class:`TraceSample`, ``Rect.contains_point``, ``SafeRegion.probe``
  of a ``Point``) and charged one probe at a time.  It shares no scan,
  no comparison and no charge arithmetic with the shipped clients.

Both must agree with the shipped loops on every deterministic counter,
the trigger sequence and every client's final state, for all six
strategies on static, scheduled and tracking worlds.  The seeded
mutations at the end are the suite's own test: each is a plausible slip
in a scan loop, and each must be caught.
"""

import functools
import importlib
import inspect
import math
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.simulation as session
from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import (AlarmSchedule, AlarmServer, InstallAction, Metrics,
                          RemoveAction, TargetTrack, World,
                          run_dynamic_simulation, run_simulation,
                          run_tracking_simulation)
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
from repro.saferegion import (BitmapSafeRegion, PBSRComputer,
                              RectangularSafeRegion)
from repro.strategies import BitmapSafeRegionStrategy
from repro.strategies import base as strategies_base
from repro.strategies.base import ClientState
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
    under a ``mutation`` (a ``MutationFactory``).  The clients are
    returned as they ended, in trace order."""
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
        for step in range(max((len(trace) for trace in traces), default=0)):
            changes = bound.apply(step)
            if any(changes):
                for client in clients.values():
                    if session._stale(client, server, changes):
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
            client.safe_region = RectangularSafeRegion(rect)
            client.footprint = rect
            strategy._mark_region_installed(client, sample.time)
    return rect


def rectangular_fix(strategy, client, sample):
    if client.safe_region is not None:
        inside, ops = client.safe_region.probe(sample.position)
        strategy.session.charge_probe(ops)
        if inside:
            return
        strategy._note_region_exit(client, sample.time)
    _renew_rectangle(strategy, client, sample)


def adaptive_fix(strategy, client, sample):
    if client.safe_region is not None and sample.time < client.expiry:
        return  # provably still inside: not even a probe
    if client.safe_region is not None:
        inside, ops = client.safe_region.probe(sample.position)
        strategy.session.charge_probe(ops)
        if inside:
            slack = client.safe_region.rect.boundary_distance(
                sample.position)
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
            client.safe_region = BitmapSafeRegion(message.bitmap)
            strategy._mark_region_installed(client, sample.time)


def bitmap_fix(strategy, client, sample):
    if (client.footprint is not None
            and client.footprint.contains_point(sample.position)):
        inside, ops = client.safe_region.probe(sample.position)
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
    region = client.safe_region
    if isinstance(region, RectangularSafeRegion):
        region = ("rect", region.rect)
    elif isinstance(region, BitmapSafeRegion):
        region = ("bitmap", region.bitmap.pyramid.base,
                  region.bitmap.to_bitstring())
    return (client.user_id, client.sequence, region, client.footprint,
            client.expiry, client.local_alarms, client.region_installed_at)


def observed(metrics, clients):
    return (metrics.counters(), metrics.triggers,
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
    from repro.experiments.configs import build_world, clear_caches
    clear_caches()
    yield build_world(worlds.world_config("fleet", 3))
    clear_caches()


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


def edge_world(positions_by_user, alarms):
    """A world over the lattice; ``alarms`` are ``(region, scope, owner)``."""
    registry = AlarmRegistry(max_tree_entries=4)
    for region, scope, owner in alarms:
        registry.install(region, scope, owner)
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
    x, y = draw(st.integers(0, 26)), draw(st.integers(0, 26))
    region = Rect(x, y, min(27.0, x + draw(st.sampled_from([0, 1, 3, 5, 9]))),
                  min(27.0, y + draw(st.sampled_from([0, 1, 3, 5, 9]))))
    scope = draw(st.sampled_from([AlarmScope.PUBLIC, AlarmScope.PRIVATE]))
    return region, scope, draw(st.sampled_from(USERS))


@st.composite
def edge_worlds(draw):
    return edge_world({user: draw(walks()) for user in USERS},
                      draw(st.lists(lattice_alarms(), max_size=10)))


@st.composite
def kinds(draw, world):
    """Static, or a schedule, or a target hopping over the lattice."""
    choice = draw(st.sampled_from(["static", "schedule", "track"]))
    if choice == "static":
        return STATIC
    times = st.integers(0, 40).map(lambda k: k / 2.0)
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
    actions = [InstallAction(draw(times), region, scope, owner)
               for region, scope, owner
               in draw(st.lists(lattice_alarms(), max_size=6))]
    for alarm_id in draw(st.lists(
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
    alarms = [(Rect(3.0, 2.0, 6.0, 7.0), AlarmScope.PUBLIC, 0),
              (Rect(12.0, 3.0, 13.0, 5.0), AlarmScope.PUBLIC, 0),
              (Rect(3.0, 12.0, 8.0, 15.0), AlarmScope.PRIVATE, 1),
              (Rect(12.0, 12.0, 14.0, 14.0), AlarmScope.PUBLIC, 2),
              (Rect(18.0, 0.0, 27.0, 4.5), AlarmScope.PUBLIC, 0),
              (Rect(22.0, 22.0, 22.0, 26.0), AlarmScope.PUBLIC, 0)]
    return edge_world({0: along_x, 1: slide, 2: park, 3: brief}, alarms)


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
    ("bitmap", "failing probe not charged",
     "                probes += 1\n                ops += levels\n"
     "                if not inside:\n                    unsafe = True\n"
     "                    break\n",
     "                if not inside:\n                    unsafe = True\n"
     "                    break\n"
     "                probes += 1\n                ops += levels\n"),
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
    mutant.__dict__.update(__package__=module.__package__,
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
