"""The server's shared public-alarm bitmap memo, against a fresh build.

The memo (:mod:`repro.saferegion.cache`) is on for every bitmap run, so
its oracle is a live server under churn: a hypothesis state machine
installs, removes and relocates public, private and shared alarms
(edges on a lattice that puts them on, across and against cell
boundaries), fires them per user, and after every step holds the server
to what a memo-less one would do — each region served equals a fresh
:class:`PBSRComputer` build over that user's own pending alarms, a user
with a private alarm in the cell is never handed a shared region, and
the memo holds exactly the entries its invalidation rule says it
should.
"""

import functools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, consumes,
                                 invariant, rule)

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import AlarmServer, Metrics
from repro.engine.dynamic import (ScheduleMutation,
                                  compute_dynamic_ground_truth)
from repro.engine.tracking import (TrackMutation,
                                   compute_tracking_ground_truth)
from repro.geometry import Point, Rect
from repro.index import CellId, GridOverlay
from repro.protocol.handlers import handle_request
from repro.protocol.messages import InstallSafeRegion, RegionExitReport
from repro.saferegion import PBSRComputer
from repro.strategies import BitmapSafeRegionStrategy
from repro.strategies.bitmap import BitmapPolicy
from repro.telemetry import Telemetry

from ..engine.test_golden_mutation import golden_schedule, golden_track
from ..oracles import VERIFIED, check_shared_regions, checked_run
from .conftest import make_world

UNIVERSE = Rect(0, 0, 3000, 3000)   # 3 x 3 cells of 1 km^2
STEP = 125                          # lattice pitch: 8 per cell side
USERS = (0, 1, 2, 3)
HEIGHT = 2
SHAPE = (HEIGHT, PBSRComputer(height=HEIGHT).fan)

lattice = st.integers(0, 3000 // STEP).map(lambda k: float(k * STEP))


@st.composite
def rects(draw):
    """A positive-area rectangle with every edge on the lattice."""
    x0, x1 = sorted(draw(st.lists(lattice, min_size=2, max_size=2,
                                  unique=True)))
    y0, y1 = sorted(draw(st.lists(lattice, min_size=2, max_size=2,
                                  unique=True)))
    return Rect(x0, y0, x1, y1)


def bits(region_or_bitmap):
    bitmap = getattr(region_or_bitmap, "bitmap", region_or_bitmap)
    return bitmap.to_bitstring()


def report(server, policy, user, position, time_s=1.0):
    """One region-exit uplink through the real handler; its install."""
    reply = handle_request(server, policy,
                           RegionExitReport(user, 0, position, 0.0, 0.0),
                           time_s)
    (install,) = [message for message in reply
                  if isinstance(message, InstallSafeRegion)]
    return install


class SharedMemoMachine(RuleBasedStateMachine):
    alarms = Bundle("alarms")

    def __init__(self):
        super().__init__()
        self.registry = AlarmRegistry()
        self.grid = GridOverlay(UNIVERSE, 1.0)
        self.server = AlarmServer(self.registry, self.grid, Metrics())
        self.policy = BitmapPolicy(PBSRComputer(height=HEIGHT))
        self.memo = self.server.region_cache
        self.expected = set()   # the keys the memo should hold
        self.clock = 0.0

    def teardown(self):
        self.server.close()
        assert self.registry._listeners == []

    def fresh(self, cell, alarms):
        return PBSRComputer(height=HEIGHT).compute(
            cell, [alarm.region for alarm in alarms])

    def expect_dropped(self, before, alarm_id):
        """``before`` minus the entries naming ``alarm_id``, untouched."""
        after = self.memo.entries()
        assert set(after) == {key for key in before
                              if alarm_id not in key[2]}
        assert all(after[key] is before[key] for key in after)
        self.expected = set(after)

    # -- world mutations ------------------------------------------------
    @rule(target=alarms, region=rects(),
          scope=st.sampled_from(list(AlarmScope)),
          owner=st.sampled_from(USERS),
          subscribers=st.sets(st.sampled_from(USERS), min_size=1))
    def install(self, region, scope, owner, subscribers):
        before = self.memo.entries()
        alarm = self.registry.install(
            region, scope, owner,
            subscribers if scope is AlarmScope.SHARED else ())
        self.expect_dropped(before, None)  # an install drops nothing
        return alarm.alarm_id

    @rule(alarm_id=consumes(alarms))
    def remove(self, alarm_id):
        before = self.memo.entries()
        assert self.registry.remove(alarm_id)
        self.expect_dropped(before, alarm_id)

    @rule(alarm_id=alarms, region=rects())
    def relocate(self, alarm_id, region):
        before = self.memo.entries()
        self.registry.relocate(alarm_id, region)
        self.expect_dropped(before, alarm_id)

    # -- a subscriber reports: fires what it stands in, gets its cell ---
    @rule(user=st.sampled_from(USERS), x=lattice, y=lattice)
    def report(self, user, x, y):
        self.clock += 1.0
        position = Point(x, y)
        held = self.memo.entries()
        install = report(self.server, self.policy, user, position,
                         self.clock)
        cell_id = self.grid.cell_of(position)
        cell = self.grid.cell_rect(cell_id)
        pending = self.registry.relevant_intersecting(
            user, cell, exclude_ids=self.server.fired_for(user))
        assert bits(install.bitmap) == bits(self.fresh(cell, pending))
        now = self.memo.entries()
        if any(alarm.scope is not AlarmScope.PUBLIC for alarm in pending):
            # Built for this user alone: not from the memo, not into it.
            assert set(now) == set(held)
            assert all(install.bitmap is not region.bitmap
                       for region in now.values())
            return
        key = (cell_id, SHAPE, tuple(alarm.alarm_id for alarm in pending))
        assert install.bitmap is now[key].bitmap
        if key in held:
            assert now[key] is held[key]  # shared, not rebuilt
        self.expected.add(key)

    # -- what must hold between any two steps ---------------------------
    @invariant()
    def memo_holds_exactly_the_live_public_regions(self):
        entries = self.memo.entries()
        assert set(entries) == self.expected
        for (cell_id, shape, public_ids), region in entries.items():
            assert shape == SHAPE
            cell = self.grid.cell_rect(cell_id)
            named = [self.registry.get(alarm_id)  # KeyError: not live
                     for alarm_id in public_ids]
            assert all(alarm.scope is AlarmScope.PUBLIC
                       and alarm.region.interior_intersects(cell)
                       for alarm in named)
            assert bits(region) == bits(self.fresh(cell, named))
        # Every key names live public alarms over its own cell, so the
        # memo is bounded by cells x live public pending sets.


SharedMemoMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestSharedMemoUnderChurn = SharedMemoMachine.TestCase


# ----------------------------------------------------------------------
# The same rules, one scenario each
# ----------------------------------------------------------------------
@pytest.fixture
def served():
    registry = AlarmRegistry()
    grid = GridOverlay(UNIVERSE, 1.0)
    server = check_shared_regions(AlarmServer(registry, grid, Metrics()))
    policy = BitmapPolicy(PBSRComputer(height=HEIGHT))
    yield registry, server, policy
    server.close()


CELL = CellId(1, 1)
INSIDE = Point(1500.0, 1500.0)


def test_co_located_subscribers_share_one_build(served):
    registry, server, policy = served
    public = registry.install(Rect(1100, 1100, 1300, 1300),
                              AlarmScope.PUBLIC, 0)
    first = report(server, policy, 1, INSIDE)
    second = report(server, policy, 2, INSIDE)
    assert second.bitmap is first.bitmap
    assert list(server.region_cache.entries()) == [
        (CELL, SHAPE, (public.alarm_id,))]
    # one region *served* each, shared or built
    assert server.metrics.safe_region_computations == 2


def test_private_alarm_in_the_cell_bypasses_the_memo(served):
    registry, server, policy = served
    registry.install(Rect(1100, 1100, 1300, 1300), AlarmScope.PUBLIC, 0)
    registry.install(Rect(1600, 1600, 1800, 1800), AlarmScope.PRIVATE, 2)
    shared = report(server, policy, 1, INSIDE)
    personalized = report(server, policy, 2, INSIDE)
    assert personalized.bitmap is not shared.bitmap
    # the personalized region also excludes the private alarm's area
    assert personalized.bitmap.coverage() < shared.bitmap.coverage()
    assert len(server.region_cache.entries()) == 1
    # and the next public-only subscriber still gets the shared one
    assert report(server, policy, 3, INSIDE).bitmap is shared.bitmap


def test_a_fired_alarm_is_a_different_entry(served):
    registry, server, policy = served
    public = registry.install(Rect(1100, 1100, 1300, 1300),
                              AlarmScope.PUBLIC, 0)
    everyone = report(server, policy, 1, INSIDE)
    # user 2 reports from inside the alarm: it fires, so it no longer
    # constrains user 2 and the region served is the empty cell's
    fired = report(server, policy, 2, Point(1200.0, 1200.0))
    assert fired.bitmap is not everyone.bitmap
    assert set(server.region_cache.entries()) == {
        (CELL, SHAPE, (public.alarm_id,)), (CELL, SHAPE, ())}


def test_clients_of_different_heights_never_share_a_bitmap(served):
    """Paper §4.2 lets each client pick its pyramid height, and one
    server holds one memo for every policy: the key carries the shape,
    so each client is served the bitmap of its own height."""
    registry, server, _ = served
    registry.install(Rect(1100, 1100, 1300, 1300), AlarmScope.PUBLIC, 0)
    cell = server.grid.cell_rect(CELL)
    pending = registry.relevant_intersecting(1, cell)
    for height in (2, 6, 2, 6):
        computer = PBSRComputer(height=height)
        served_bitmap = report(server, BitmapPolicy(computer), height,
                               INSIDE).bitmap
        assert bits(served_bitmap) == bits(
            computer.compute(cell, [alarm.region for alarm in pending]))
    assert len(server.region_cache.entries()) == 2


def test_checked_server_catches_a_stale_shared_region(served):
    """What the hit re-verification is for: an entry that outlived the
    alarm geometry it was carved from."""
    registry, server, policy = served
    public = registry.install(Rect(1100, 1100, 1300, 1300),
                              AlarmScope.PUBLIC, 0)
    report(server, policy, 1, INSIDE)
    memo = server.region_cache
    registry.remove_listener(memo._on_mutation)  # deafen the memo
    registry.relocate(public.alarm_id, Rect(1600, 1600, 1900, 1900))
    with pytest.raises(AssertionError, match="shared safe region"):
        report(server, policy, 2, INSIDE)


def test_server_does_not_rebuild_on_a_hit(monkeypatch):
    registry = AlarmRegistry()
    registry.install(Rect(1100, 1100, 1300, 1300), AlarmScope.PUBLIC, 0)
    server = AlarmServer(registry, GridOverlay(UNIVERSE, 1.0), Metrics())
    computer = PBSRComputer(height=HEIGHT)
    builds = []
    compute = computer.compute
    monkeypatch.setattr(computer, "compute",
                        lambda *args: builds.append(args) or compute(*args))
    for user in USERS:
        report(server, BitmapPolicy(computer), user, INSIDE)
    server.close()
    assert len(builds) == 1


# ----------------------------------------------------------------------
# Whole mutating runs with a memo that actually hits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["dynamic", "tracking"])
def test_mutating_runs_share_across_changes_and_stay_exact(kind):
    """An all-public world, so nearly every region served is shareable,
    under installs, removals and a moving target: the checked link
    rebuilds every shared region it hands out, and no trigger is missed,
    spurious or late."""
    world = make_world(public_fraction=1.0, alarms=60)
    if kind == "dynamic":
        schedule = golden_schedule(world)
        mutation = functools.partial(ScheduleMutation, schedule)
        truth = functools.partial(compute_dynamic_ground_truth, world,
                                  schedule)
    else:
        tracks = [golden_track(world)]
        mutation = functools.partial(TrackMutation, tracks)
        truth = functools.partial(compute_tracking_ground_truth, world,
                                  tracks)
    telemetry = Telemetry.capture()
    result = checked_run(
        world, BitmapSafeRegionStrategy(PBSRComputer(height=3)),
        VERIFIED, telemetry=telemetry, mutation=mutation,
        ground_truth=truth)
    assert result.accuracy.perfect, result.accuracy
    hits = telemetry.registry.counter("saferegion_cache_hits").value
    misses = telemetry.registry.counter("saferegion_cache_misses").value
    assert hits > 0 and misses > 0
    # served = shared + built, and only the public-only ones were looked up
    assert hits + misses <= result.metrics.safe_region_computations
