"""The audience-partitioned alarm index answers every query exactly as a
brute-force scan of the installed alarms does.

The registry keeps public alarms in one R*-tree and each subscriber's
private and shared alarms in an x-sorted list scanned through a bisect
window (``repro/alarms/registry.py``).  The oracle here is the
definition: filter ``all_alarms()`` by ``is_relevant_to`` and by
``exclude_ids``, then apply the open overlap test (range), the interior
containment test (point) or ``Rect.distance_to_point`` (nearest).  The
three answers must be equal — nearest distances bit for bit — with and
without exclusions, on geometry built to break a window:

* coordinates on a coarse lattice, so alarms abut, nest and share edges,
  and query points sit exactly on them;
* zero-width (and zero-height) alarms;
* alarms exactly ``reach`` wide whose left edge is the window's edge;
* one universe-wide private alarm, which makes its owner's window the
  whole list;
* shared alarms with many subscribers;
* all of it offset by a large non-integral base, so ``x - reach`` rounds.

The churn property installs, removes and relocates alarms of all three
scopes and holds :meth:`AlarmRegistry.validate` and every query after
each step.  Example counts come from ``tests/budget.py``: the full
budget is drawn under ``REPRO_DEEP=1``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alarms import AlarmRegistry, AlarmScope, SpatialAlarm
from repro.geometry import Point, Rect
from ..budget import examples

USERS = tuple(range(6))
#: Lattice step of the drawn coordinates (metres) and its extent.
STEP = 25.0
CELLS = 40
UNIVERSE_SIDE = STEP * CELLS
#: Bases the whole population is shifted by: the second and third make
#: ``x - reach`` and the widths round.
BASES = (0.0, 123456.789, -9876543.21)


def reference_intersecting(registry, user, rect, exclude):
    return [alarm for alarm in registry.all_alarms()
            if alarm.is_relevant_to(user) and alarm.alarm_id not in exclude
            and alarm.region.interior_intersects(rect)]


def reference_triggered(registry, user, point, exclude):
    return [alarm for alarm in registry.all_alarms()
            if alarm.is_relevant_to(user) and alarm.alarm_id not in exclude
            and alarm.region.interior_contains_point(point)]


def reference_nearest(registry, user, point, exclude):
    return min((alarm.region.distance_to_point(point)
                for alarm in registry.all_alarms()
                if alarm.is_relevant_to(user)
                and alarm.alarm_id not in exclude), default=math.inf)


def probe_points(registry, base, extra):
    """Edges, corners, centres and one-ulp neighbours of some alarms."""
    points = [Point(base + x, y) for x, y in extra]
    for alarm in registry.all_alarms()[:8]:
        box = alarm.region
        for x in (box.min_x, box.max_x, box.center.x,
                  math.nextafter(box.min_x, -math.inf),
                  math.nextafter(box.max_x, math.inf)):
            for y in (box.min_y, box.center.y, box.max_y):
                points.append(Point(x, y))
    return points


def assert_queries_match(registry, points, rects, fired):
    for user in USERS + (99,):
        for exclude in (frozenset(), fired):
            for point in points:
                assert (registry.triggered_at(user, point, exclude)
                        == reference_triggered(registry, user, point,
                                               exclude)), (user, point)
                expected = reference_nearest(registry, user, point, exclude)
                got = registry.nearest_relevant_distance(user, point, exclude)
                assert got == expected, (user, point, got, expected)
            for rect in rects:
                assert (registry.relevant_intersecting(user, rect, exclude)
                        == reference_intersecting(registry, user, rect,
                                                  exclude)), (user, rect)


scopes = st.sampled_from(list(AlarmScope))
lattice = st.integers(0, CELLS)


@st.composite
def alarm_drafts(draw, base):
    """One draft on the lattice: possibly zero-wide, nested or abutting."""
    x0, y0 = draw(lattice), draw(lattice)
    width = draw(st.sampled_from([0, 0, 1, 2, 4, 8, CELLS]))
    height = draw(st.integers(0, 6))
    region = Rect(base + x0 * STEP, y0 * STEP,
                  base + min(CELLS, x0 + width) * STEP,
                  min(CELLS, y0 + height) * STEP)
    scope = draw(scopes)
    owner = draw(st.sampled_from(USERS))
    subscribers = frozenset()
    if scope is AlarmScope.SHARED:
        subscribers = frozenset(draw(st.lists(st.sampled_from(USERS),
                                              min_size=1,
                                              max_size=len(USERS))))
    return SpatialAlarm(-1, region, scope, owner, subscribers)


@st.composite
def populations(draw):
    base = draw(st.sampled_from(BASES))
    drafts = draw(st.lists(alarm_drafts(base), max_size=40))
    if draw(st.booleans()):
        owner = draw(st.sampled_from(USERS))
        drafts.append(SpatialAlarm(
            -1, Rect(base, 0.0, base + UNIVERSE_SIDE, UNIVERSE_SIDE),
            AlarmScope.PRIVATE, owner))
    if draw(st.booleans()):
        drafts.append(SpatialAlarm(
            -1, Rect(base + 200.0, 200.0, base + 300.0, 300.0),
            AlarmScope.SHARED, 0, frozenset(USERS)))
    return base, drafts


def lattice_points(draw):
    return draw(st.lists(st.tuples(
        st.integers(-2, CELLS + 2).map(lambda k: k * STEP),
        st.integers(-2, CELLS + 2).map(lambda k: k * STEP)),
        max_size=6))


def lattice_rects(draw, base):
    rects = []
    for x0, y0, w, h in draw(st.lists(st.tuples(
            st.integers(-2, CELLS), st.integers(-2, CELLS),
            st.integers(0, 12), st.integers(0, 12)), max_size=6)):
        rects.append(Rect(base + x0 * STEP, y0 * STEP,
                          base + (x0 + w) * STEP, (y0 + h) * STEP))
    return rects


@settings(max_examples=examples(40, 400), deadline=None)
@given(populations(), st.data())
def test_property_queries_equal_brute_force(population, data):
    base, drafts = population
    for packed in (True, False):
        registry = AlarmRegistry(max_tree_entries=4)
        if packed:
            registry.install_all(drafts)
        else:
            for draft in drafts:
                registry.install(draft.region, draft.scope, draft.owner_id,
                                 draft.subscribers)
        registry.validate()
        fired = frozenset(alarm.alarm_id for alarm in registry.all_alarms()
                          if alarm.alarm_id % 3 == 0)
        points = probe_points(registry, base, lattice_points(data.draw))
        rects = lattice_rects(data.draw, base) + [
            alarm.region for alarm in registry.all_alarms()[:4]]
        assert_queries_match(registry, points, rects, fired)


churn_step = st.one_of(
    st.tuples(st.just("install"), scopes, st.sampled_from(USERS),
              st.integers(0, CELLS), st.integers(0, CELLS),
              st.integers(0, 10)),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("relocate"), st.integers(0, 10 ** 6),
              st.integers(0, CELLS), st.integers(0, CELLS),
              st.integers(0, 10)))


@settings(max_examples=examples(25, 250), deadline=None)
@given(populations(), st.lists(churn_step, max_size=30), st.data())
def test_property_churn_keeps_index_exact(population, steps, data):
    base, drafts = population
    registry = AlarmRegistry(max_tree_entries=4)
    registry.install_all(drafts)
    for step in steps:
        live = [alarm.alarm_id for alarm in registry.all_alarms()]
        if step[0] == "install":
            _, scope, owner, x, y, side = step
            subscribers = (USERS[owner:] + USERS[:1]
                           if scope is AlarmScope.SHARED else ())
            registry.install(Rect(base + x * STEP, y * STEP,
                                  base + (x + side) * STEP,
                                  (y + side // 2) * STEP),
                             scope, owner, subscribers)
        elif live and step[0] == "remove":
            assert registry.remove(live[step[1] % len(live)])
        elif live:
            _, pick, x, y, side = step
            registry.relocate(live[pick % len(live)],
                              Rect(base + x * STEP, y * STEP,
                                   base + (x + side) * STEP,
                                   (y + side) * STEP))
        registry.validate()
    fired = frozenset(alarm.alarm_id for alarm in registry.all_alarms()
                      if alarm.alarm_id % 2 == 0)
    points = probe_points(registry, base, lattice_points(data.draw))
    assert_queries_match(registry, points, lattice_rects(data.draw, base),
                         fired)


def test_member_exactly_reach_wide_at_the_window_edge():
    """The widest member starts ``reach`` left of the query: on the edge."""
    base = BASES[1]
    registry = AlarmRegistry()
    wide = registry.install(Rect(base, 0.0, base + 300.0, 10.0),
                            AlarmScope.PRIVATE, 1)
    narrow = registry.install(Rect(base + 250.0, 0.0, base + 260.0, 10.0),
                              AlarmScope.PRIVATE, 1)
    edge_x = wide.region.max_x
    # the point query at max_x: the wide alarm touches, it does not contain
    assert registry.triggered_at(1, Point(edge_x, 5.0)) == []
    inside = math.nextafter(edge_x, -math.inf)
    assert registry.triggered_at(1, Point(inside, 5.0)) == [wide]
    # a range starting at max_x abuts the wide alarm, one ulp left overlaps
    assert registry.relevant_intersecting(
        1, Rect(edge_x, 0.0, edge_x + 5.0, 5.0)) == []
    assert registry.relevant_intersecting(
        1, Rect(inside, 0.0, edge_x + 5.0, 5.0)) == [wide]
    assert registry.nearest_relevant_distance(
        1, Point(edge_x + 40.0, 5.0)) == 40.0
    assert registry.nearest_relevant_distance(
        1, Point(edge_x + 40.0, 5.0), {wide.alarm_id}) == \
        narrow.region.distance_to_point(Point(edge_x + 40.0, 5.0))
    registry.validate()


def test_universe_wide_private_alarm_is_seen_from_everywhere():
    registry = AlarmRegistry()
    registry.install(Rect(5000.0, 0.0, 5010.0, 10.0), AlarmScope.PUBLIC, 2)
    everywhere = registry.install(Rect(0.0, 0.0, 1e4, 1e4),
                                  AlarmScope.PRIVATE, 1)
    for x in (1.0, 4999.0, 9999.0):
        point = Point(x, 5000.0)
        assert registry.triggered_at(1, point) == [everywhere]
        assert registry.triggered_at(2, point) == []
        assert registry.nearest_relevant_distance(1, point) == 0.0
    assert registry.remove(everywhere.alarm_id)
    registry.validate()
    assert registry.triggered_at(1, Point(1.0, 5000.0)) == []
