"""Tests for the alarm registry: lifecycle, relevance queries, workload."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alarms import (AlarmRegistry, AlarmScope, SpatialAlarm,
                          install_clustered_alarms, install_random_alarms)
from repro.geometry import Point, Rect

UNIVERSE = Rect(0, 0, 10000, 10000)


@pytest.fixture
def registry():
    return AlarmRegistry()


class TestLifecycle:
    def test_install_assigns_dense_ids(self, registry):
        first = registry.install(Rect(0, 0, 10, 10), AlarmScope.PRIVATE, 1)
        second = registry.install(Rect(5, 5, 15, 15), AlarmScope.PUBLIC, 2)
        assert (first.alarm_id, second.alarm_id) == (0, 1)
        assert len(registry) == 2
        assert registry.get(0) is first

    def test_remove(self, registry):
        alarm = registry.install(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1)
        assert registry.remove(alarm.alarm_id)
        assert len(registry) == 0
        assert not registry.remove(alarm.alarm_id)

    def test_relocate(self, registry):
        alarm = registry.install(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1,
                                 moving_target=True)
        moved = registry.relocate(alarm.alarm_id, Rect(100, 100, 120, 120))
        assert moved.region == Rect(100, 100, 120, 120)
        assert registry.triggered_at(5, Point(110, 110)) == [moved]
        assert registry.triggered_at(5, Point(5, 5)) == []


class TestQueries:
    def test_triggered_at_uses_interior(self, registry):
        registry.install(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1)
        assert registry.triggered_at(2, Point(5, 5)) != []
        assert registry.triggered_at(2, Point(0, 5)) == []  # boundary

    def test_triggered_respects_relevance(self, registry):
        registry.install(Rect(0, 0, 10, 10), AlarmScope.PRIVATE, 1)
        assert registry.triggered_at(1, Point(5, 5)) != []
        assert registry.triggered_at(2, Point(5, 5)) == []

    def test_triggered_respects_exclusions(self, registry):
        alarm = registry.install(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1)
        assert registry.triggered_at(2, Point(5, 5),
                                     exclude_ids={alarm.alarm_id}) == []

    def test_relevant_intersecting_open_test(self, registry):
        registry.install(Rect(10, 0, 20, 10), AlarmScope.PUBLIC, 1)
        # query touching only along the edge x=10 sees nothing
        assert registry.relevant_intersecting(2, Rect(0, 0, 10, 10)) == []
        assert registry.relevant_intersecting(2, Rect(0, 0, 11, 10)) != []

    def test_nearest_relevant_distance(self, registry):
        registry.install(Rect(100, 0, 110, 10), AlarmScope.PUBLIC, 1)
        registry.install(Rect(0, 50, 10, 60), AlarmScope.PRIVATE, 1)
        # user 2 sees only the public alarm
        assert registry.nearest_relevant_distance(2, Point(0, 0)) == \
            pytest.approx(100.0)
        # user 1 also sees the private one, which is closer
        assert registry.nearest_relevant_distance(1, Point(0, 0)) == \
            pytest.approx(math.hypot(0, 50))

    def test_nearest_with_no_alarms_is_inf(self, registry):
        assert registry.nearest_relevant_distance(1, Point(0, 0)) == math.inf

    def test_nearest_respects_exclusions(self, registry):
        close = registry.install(Rect(10, 0, 20, 10), AlarmScope.PUBLIC, 1)
        registry.install(Rect(100, 0, 110, 10), AlarmScope.PUBLIC, 1)
        assert registry.nearest_relevant_distance(
            2, Point(0, 5), exclude_ids={close.alarm_id}) == \
            pytest.approx(100.0)


class TestRandomWorkload:
    def test_counts_and_scope_mix(self, registry):
        users = list(range(50))
        installed = install_random_alarms(registry, UNIVERSE, 1000, users,
                                          public_fraction=0.10, seed=1)
        assert len(installed) == 1000
        assert len(registry) == 1000
        by_scope = {scope: 0 for scope in AlarmScope}
        for alarm in installed:
            by_scope[alarm.scope] += 1
        total = sum(by_scope.values())
        assert by_scope[AlarmScope.PUBLIC] / total == pytest.approx(0.10,
                                                                    abs=0.03)
        # private:shared defaults to 2:1
        ratio = by_scope[AlarmScope.PRIVATE] / max(
            by_scope[AlarmScope.SHARED], 1)
        assert 1.5 < ratio < 2.7

    def test_regions_inside_universe(self, registry):
        installed = install_random_alarms(registry, UNIVERSE, 200,
                                          [1, 2, 3], seed=2)
        for alarm in installed:
            assert UNIVERSE.contains_rect(alarm.region)

    def test_sizes_in_range(self, registry):
        installed = install_random_alarms(registry, UNIVERSE, 200, [1],
                                          min_side_m=100, max_side_m=200,
                                          seed=3)
        for alarm in installed:
            assert alarm.region.width <= 200 + 1e-9
            assert alarm.region.height <= 200 + 1e-9

    def test_deterministic(self):
        first = AlarmRegistry()
        second = AlarmRegistry()
        a = install_random_alarms(first, UNIVERSE, 100, [1, 2], seed=9)
        b = install_random_alarms(second, UNIVERSE, 100, [1, 2], seed=9)
        assert [(x.region, x.scope, x.owner_id) for x in a] == \
            [(x.region, x.scope, x.owner_id) for x in b]

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            install_random_alarms(registry, UNIVERSE, 10, [])
        with pytest.raises(ValueError):
            install_random_alarms(registry, UNIVERSE, 10, [1],
                                  public_fraction=1.5)
        with pytest.raises(ValueError, match="distinct"):
            install_random_alarms(registry, UNIVERSE, 10, [1, 2, 1])


class TestRebuildIndex:
    def test_queries_unchanged_after_rebuild(self):
        registry = AlarmRegistry()
        install_random_alarms(registry, UNIVERSE, 300, list(range(10)),
                              seed=5)
        probe_points = [Point(137.0 * k % 10000, 211.0 * k % 10000)
                        for k in range(40)]
        before = [sorted(a.alarm_id for a in registry.triggered_at(3, p))
                  for p in probe_points]
        registry.rebuild_index()
        registry.validate()
        after = [sorted(a.alarm_id for a in registry.triggered_at(3, p))
                 for p in probe_points]
        assert before == after

    def test_rebuild_supports_further_updates(self):
        registry = AlarmRegistry()
        install_random_alarms(registry, UNIVERSE, 50, [1], seed=6)
        registry.rebuild_index()
        alarm = registry.install(Rect(1, 1, 5, 5), AlarmScope.PUBLIC, 1)
        assert registry.remove(alarm.alarm_id)
        registry.validate()

    def test_every_tree_charges_the_one_counter(self):
        """The cost counter is one object for the registry's lifetime:
        the tree a rebuild packs charges it, the lists charge it, and
        the rebuild resets it with the new index."""
        registry = AlarmRegistry()
        counter = registry.stats
        install_random_alarms(registry, UNIVERSE, 300, list(range(10)),
                              seed=7)
        registry.triggered_at(3, Point(5000, 5000))
        assert counter.node_accesses > 0
        registry.rebuild_index()
        assert registry.stats is counter
        assert registry.tree.stats is counter
        assert (counter.node_accesses, counter.splits,
                counter.reinserts) == (0, 0, 0)
        has_list = any(alarm.scope is not AlarmScope.PUBLIC
                       and 3 in alarm.subscriber_set(frozenset())
                       for alarm in registry.all_alarms())
        assert has_list
        for k in range(40):
            point = Point(137.0 * k % 10000, 211.0 * k % 10000)
            before = counter.node_accesses
            registry.tree.search_containing(point, interior=True)
            tree_charge = counter.node_accesses - before
            before = counter.node_accesses
            registry.triggered_at(3, point)
            # the same tree nodes again, plus one probe of user 3's list
            assert counter.node_accesses - before == tree_charge + 1


def drafts(count, seed=0, users=8):
    """A mixed-scope population as ``install_all`` takes it (ids unset)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.uniform(0, 9000), rng.uniform(0, 9000)
        region = Rect(x, y, x + rng.uniform(0, 900), y + rng.uniform(0, 900))
        scope = rng.choice(list(AlarmScope))
        subscribers = (frozenset(rng.sample(range(users), 2))
                       if scope is AlarmScope.SHARED else frozenset())
        out.append(SpatialAlarm(-1, region, scope, rng.randrange(users),
                                subscribers, label="draft"))
    return out


def one_by_one(population):
    registry = AlarmRegistry()
    for draft in population:
        registry.install(draft.region, draft.scope, draft.owner_id,
                         draft.subscribers, draft.moving_target, draft.label)
    return registry


class TestInstallAll:
    def test_equals_one_by_one_installs(self):
        population = drafts(400, seed=11)
        packed, grown = AlarmRegistry(), one_by_one(population)
        installed = packed.install_all(population)
        assert installed == packed.all_alarms() == grown.all_alarms()
        assert [alarm.alarm_id for alarm in installed] == list(range(400))
        packed.validate()
        assert index_contents(packed) == index_contents(grown)
        assert len(packed.tree) == sum(
            1 for alarm in installed if alarm.scope is AlarmScope.PUBLIC)
        rng = random.Random(12)
        for _ in range(60):
            point = Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            rect = Rect(point.x, point.y, point.x + rng.uniform(0, 2500),
                        point.y + rng.uniform(0, 2500))
            user = rng.randrange(8)
            fired = set(rng.sample(range(400), 40))
            assert (packed.triggered_at(user, point, fired)
                    == grown.triggered_at(user, point, fired))
            assert (packed.relevant_intersecting(user, rect, fired)
                    == grown.relevant_intersecting(user, rect, fired))
            assert (packed.nearest_relevant_distance(user, point, fired)
                    == grown.nearest_relevant_distance(user, point, fired))
            assert (sorted(packed.tree.search_intersecting(rect))
                    == sorted(grown.tree.search_intersecting(rect)))

    def test_builds_the_index_without_dynamic_inserts(self):
        registry = AlarmRegistry()
        registry.install_all(drafts(300, seed=13))
        assert registry.tree.stats.splits == 0
        assert registry.tree.stats.reinserts == 0

    def test_listeners_see_the_same_notifications_in_order(self):
        population = drafts(120, seed=14)
        seen = {}
        for name in ("packed", "grown"):
            registry = AlarmRegistry()
            seen[name] = []
            registry.add_listener(
                lambda *event, log=seen[name]: log.append(event))
            if name == "packed":
                registry.install_all(population)
            else:
                for draft in population:
                    registry.install(draft.region, draft.scope,
                                     draft.owner_id, draft.subscribers,
                                     label=draft.label)
        assert seen["packed"] == seen["grown"]
        assert [event[0] for event in seen["packed"]] == list(range(120))

    def test_non_empty_registry_takes_the_dynamic_path(self):
        registry = AlarmRegistry()
        first = registry.install(Rect(0, 0, 10, 10), AlarmScope.PUBLIC, 1)
        tree = registry.tree
        population = drafts(50, seed=15)
        installed = registry.install_all(population)
        assert registry.tree is tree  # inserted into, not repacked
        assert [alarm.alarm_id for alarm in installed] == list(range(1, 51))
        assert registry.all_alarms() == [first] + installed
        assert ([alarm.region for alarm in installed]
                == [draft.region for draft in population])
        assert installed[0].label == "draft"
        registry.validate()

    def test_ids_stay_dense_after_the_registry_was_emptied(self):
        registry = AlarmRegistry()
        registry.install_all(drafts(5, seed=16))
        for alarm_id in range(5):
            assert registry.remove(alarm_id)
        installed = registry.install_all(drafts(3, seed=17))
        assert [alarm.alarm_id for alarm in installed] == [5, 6, 7]
        assert registry.install(Rect(0, 0, 1, 1), AlarmScope.PUBLIC,
                                1).alarm_id == 8
        registry.validate()

    def test_empty_population(self):
        registry = AlarmRegistry()
        assert registry.install_all([]) == []
        assert len(registry) == 0
        registry.validate()
        assert index_contents(registry) == ([], {})


churn_step = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(list(AlarmScope)),
              st.integers(0, 90), st.integers(0, 90), st.integers(0, 12)),
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("relocate"), st.integers(0, 10 ** 6),
              st.integers(0, 90), st.integers(0, 12)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.lists(churn_step, max_size=80))
def test_property_packed_index_survives_churn(population, steps):
    """install/remove/relocate of every scope on a packed index keep it
    valid, holding each alarm exactly where its audience looks."""
    registry = AlarmRegistry(max_tree_entries=4)
    registry.install_all(drafts(population, seed=population))
    for step in steps:
        live = sorted(alarm.alarm_id for alarm in registry.all_alarms())
        if step[0] == "install":
            _, scope, x, y, side = step
            registry.install(Rect(x, y, x + side, y + side), scope, x % 8,
                             {y % 8} if scope is AlarmScope.SHARED else ())
        elif live and step[0] == "remove":
            assert registry.remove(live[step[1] % len(live)])
        elif live:
            _, pick, x, side = step
            registry.relocate(live[pick % len(live)],
                              Rect(x, x, x + side, x + side))
        registry.validate()
    assert index_contents(registry) == expected_contents(
        registry.all_alarms())


def index_contents(registry):
    """What the index holds: the public tree's pairs, and per subscriber
    the ``(alarm id, region)`` pairs of their list."""
    tree = sorted(registry.tree.items())
    lists = {user_id: sorted((alarm.alarm_id, alarm.region)
                             for alarm in own.alarms)
             for user_id, own in registry._lists.items()}
    return tree, lists


def expected_contents(alarms):
    """:func:`index_contents` of a registry holding ``alarms``, by
    definition: public alarms in the tree, the others with everyone they
    are relevant to."""
    tree = sorted((alarm.alarm_id, alarm.region) for alarm in alarms
                  if alarm.scope is AlarmScope.PUBLIC)
    lists = {}
    for alarm in alarms:
        if alarm.scope is AlarmScope.PUBLIC:
            continue
        for user_id in range(8):
            if alarm.is_relevant_to(user_id):
                lists.setdefault(user_id, []).append(
                    (alarm.alarm_id, alarm.region))
    return tree, {user_id: sorted(pairs) for user_id, pairs in lists.items()}


class TestValidate:
    """Each slip in the partitioned index fails :meth:`validate`."""

    @pytest.fixture
    def registry(self):
        registry = AlarmRegistry(max_tree_entries=4)
        registry.install_all(drafts(60, seed=21))
        registry.validate()
        assert index_contents(registry) == expected_contents(
            registry.all_alarms())
        return registry

    @staticmethod
    def longest_list(registry):
        return max(registry._lists.values(), key=lambda own: len(own.alarms))

    def test_missing_entry(self, registry):
        own = self.longest_list(registry)
        del own.keys[1], own.alarms[1]
        with pytest.raises(AssertionError, match="audience is"):
            registry.validate()

    def test_unsorted_list(self, registry):
        own = self.longest_list(registry)
        own.keys.reverse()
        own.alarms.reverse()
        with pytest.raises(AssertionError, match="not sorted"):
            registry.validate()

    def test_keys_out_of_step(self, registry):
        own = self.longest_list(registry)
        own.keys[0] -= 1.0
        with pytest.raises(AssertionError, match="out of step"):
            registry.validate()

    def test_public_alarm_in_a_list(self, registry):
        public = next(alarm for alarm in registry.all_alarms()
                      if alarm.scope is AlarmScope.PUBLIC)
        self.longest_list(registry).add(public)
        with pytest.raises(AssertionError, match="public alarm"):
            registry.validate()

    def test_reach_too_small(self, registry):
        own = self.longest_list(registry)
        own.reach = max(alarm.region.width for alarm in own.alarms) / 2
        with pytest.raises(AssertionError, match="reach"):
            registry.validate()

    def test_alarm_missing_from_the_tree(self, registry):
        public = next(alarm for alarm in registry.all_alarms()
                      if alarm.scope is AlarmScope.PUBLIC)
        registry.tree.delete(public.alarm_id, public.region)
        with pytest.raises(AssertionError, match="public tree"):
            registry.validate()

    def test_stale_alarm_object(self, registry):
        own = self.longest_list(registry)
        own.alarms[0] = own.alarms[0].with_region(own.alarms[0].region)
        with pytest.raises(AssertionError, match="stale alarm object"):
            registry.validate()


class TestClusteredWorkload:
    def test_counts_and_containment(self):
        registry = AlarmRegistry()
        installed = install_clustered_alarms(registry, UNIVERSE, 400,
                                             list(range(20)), seed=11)
        assert len(installed) == 400
        for alarm in installed:
            assert UNIVERSE.contains_rect(alarm.region)

    def test_more_clustered_than_uniform(self):
        """Hotspot placement concentrates alarms in a few grid cells."""
        from repro.index import GridOverlay

        def occupancy_spread(installer, seed):
            registry = AlarmRegistry()
            installed = installer(registry, UNIVERSE, 500, [1], seed=seed)
            grid = GridOverlay(UNIVERSE, cell_area_km2=4.0)
            counts = {}
            for alarm in installed:
                cell = grid.cell_of(alarm.region.center)
                counts[cell] = counts.get(cell, 0) + 1
            mean = 500 / grid.cell_count
            return max(counts.values()) / mean

        clustered = occupancy_spread(install_clustered_alarms, 13)
        uniform = occupancy_spread(install_random_alarms, 13)
        assert clustered > uniform * 1.5

    def test_background_fraction_one_is_uniformish(self):
        registry = AlarmRegistry()
        installed = install_clustered_alarms(registry, UNIVERSE, 100, [1],
                                             background_fraction=1.0,
                                             seed=14)
        assert len(installed) == 100

    def test_validation(self):
        registry = AlarmRegistry()
        with pytest.raises(ValueError):
            install_clustered_alarms(registry, UNIVERSE, 10, [1],
                                     hotspot_count=0)
        with pytest.raises(ValueError):
            install_clustered_alarms(registry, UNIVERSE, 10, [1],
                                     background_fraction=2.0)
