"""Alarm installation, indexing and relevance resolution.

The registry is the server-side alarm store.  The paper evaluates every
position update "against installed spatial alarms indexed in an R*-tree"
(Section 5.1); here the index is partitioned by audience as well as by
place, as Keller et al. partition a dynamic spatial database by who asks
(PAPERS.md):

* **public** alarms, which every subscriber sees, live in one R*-tree
  (:attr:`AlarmRegistry.tree`);
* each subscriber's **private and shared** alarms live in that
  subscriber's *audience list*: the :class:`SpatialAlarm` objects sorted
  by ``region.min_x``, a parallel list of those keys, and ``reach``, the
  widest member's width.  A shared alarm sits in its owner's list and in
  each of its subscribers' lists.

A query never meets an alarm its subscriber cannot see.  A point or
range query over ``[x0, x1]`` searches the public tree and bisects the
subscriber's list once: a member reaching past ``x0`` starts no further
left than ``x0 - reach``, so only the window ``[x0 - reach, x1)`` —
lowered by a relative margin far wider than the rounding of the
subtraction and of the widths — is scanned, and the exact rectangle test
decides membership.  The nearest-distance query walks the list outward
from the bisect point and stops once the x-gap bound reaches the best
distance so far.  ``exclude_ids`` (alarms already fired for the
subscriber) stays a filter over both answers.

Install, remove and relocate touch the public tree or each audience
member's list; :meth:`AlarmRegistry.install_all` and
:meth:`AlarmRegistry.rebuild_index` STR-pack the tree and sort the lists
once.  :attr:`AlarmRegistry.stats` is the index's cost counter, one
:class:`~repro.index.TreeStats` that every public tree the registry
builds is handed and whose ``node_accesses`` the lists charge too:
public-tree nodes visited plus one per audience list searched.
:meth:`AlarmRegistry.validate` checks the whole partition.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace
from operator import attrgetter
from typing import (AbstractSet, Callable, Dict, Iterable, List, Optional,
                    Sequence)

from ..geometry import Point, Rect
from ..index import RStarTree, TreeStats
from .alarm import AlarmScope, SpatialAlarm

#: Relative margin (of ``|x| + span``) by which :func:`_floor` lowers
#: ``x - span``: that subtraction and each member's width round by at
#: most 2**-53 of their operands, so the margin is thousands of times
#: what rounding can take away.
_SLACK = 2.0 ** -40

#: A generated shared alarm names 1 to this many subscribers besides its
#: owner (fewer when the population is smaller).
MAX_SHARED_SUBSCRIBERS = 5

_by_id = attrgetter("alarm_id")


def _floor(x: float, span: float) -> float:
    """``x - span``, lowered by the rounding margin: a list member whose
    ``min_x`` lies below it ends more than ``span - reach`` left of ``x``."""
    return x - span - (abs(x) + span) * _SLACK


class _AudienceList:
    """One subscriber's private and shared alarms, sorted by ``min_x``.

    ``keys[i]`` is ``alarms[i].region.min_x``; ``reach`` is at least the
    width of every member (exactly the widest one after each change).
    """

    __slots__ = ("keys", "alarms", "reach")

    def __init__(self, alarms: List[SpatialAlarm]) -> None:
        alarms.sort(key=lambda alarm: alarm.region.min_x)
        self.alarms = alarms
        self.keys = [alarm.region.min_x for alarm in alarms]
        self.reach = max((alarm.region.width for alarm in alarms),
                         default=0.0)

    def add(self, alarm: SpatialAlarm) -> None:
        key = alarm.region.min_x
        at = bisect_right(self.keys, key)
        self.keys.insert(at, key)
        self.alarms.insert(at, alarm)
        self.reach = max(self.reach, alarm.region.width)

    def discard(self, alarm: SpatialAlarm) -> None:
        at = bisect_left(self.keys, alarm.region.min_x)
        while self.alarms[at].alarm_id != alarm.alarm_id:
            at += 1
        del self.keys[at]
        del self.alarms[at]
        if alarm.region.width == self.reach:
            self.reach = max((member.region.width
                              for member in self.alarms), default=0.0)


class AlarmRegistry:
    """Server-side store of installed spatial alarms."""

    def __init__(self, max_tree_entries: int = 16) -> None:
        #: The index's cost counter (see the module docstring): one
        #: object for the registry's lifetime, handed to every tree it
        #: builds; a plain attribute, read twice per evaluated report.
        self.stats = TreeStats()
        self._tree = self._charging(RStarTree(max_entries=max_tree_entries))
        self._lists: Dict[int, _AudienceList] = {}
        self._alarms: Dict[int, SpatialAlarm] = {}
        self._next_id = 0
        # mutation listeners: callback(alarm_id, old_region, new_region);
        # old_region is None on install, new_region is None on removal.
        self._listeners: List[Callable[[int, Optional[Rect],
                                        Optional[Rect]], None]] = []

    def add_listener(self, callback: Callable[[int, Optional[Rect],
                                               Optional[Rect]],
                                              None]) -> None:
        """Subscribe to alarm mutations (caches, invalidation logic)."""
        self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[int, Optional[Rect],
                                                  Optional[Rect]],
                                                 None]) -> None:
        """Unsubscribe a mutation listener (no-op when absent)."""
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def _notify(self, alarm_id: int, old_region: Optional[Rect],
                new_region: Optional[Rect]) -> None:
        for callback in self._listeners:
            callback(alarm_id, old_region, new_region)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _index(self, alarm: SpatialAlarm) -> None:
        if alarm.scope is AlarmScope.PUBLIC:
            self._tree.insert(alarm.alarm_id, alarm.region)
            return
        lists = self._lists
        for user_id in alarm.subscriber_set(frozenset()):
            own = lists.get(user_id)
            if own is None:
                lists[user_id] = _AudienceList([alarm])
            else:
                own.add(alarm)

    def _unindex(self, alarm: SpatialAlarm) -> None:
        if alarm.scope is AlarmScope.PUBLIC:
            removed = self._tree.delete(alarm.alarm_id, alarm.region)
            assert removed, "registry and tree out of sync"
            return
        lists = self._lists
        for user_id in alarm.subscriber_set(frozenset()):
            own = lists[user_id]
            own.discard(alarm)
            if not own.alarms:
                del lists[user_id]

    def install(self, region: Rect, scope: AlarmScope, owner_id: int,
                subscribers: Iterable[int] = (),
                moving_target: bool = False,
                label: Optional[str] = None) -> SpatialAlarm:
        """Install a new alarm and return it (ids are assigned densely)."""
        alarm = SpatialAlarm(alarm_id=self._next_id, region=region,
                             scope=scope, owner_id=owner_id,
                             subscribers=frozenset(subscribers),
                             moving_target=moving_target, label=label)
        self._next_id += 1
        self._alarms[alarm.alarm_id] = alarm
        self._index(alarm)
        self._notify(alarm.alarm_id, None, region)
        return alarm

    def install_all(self, drafts: Iterable[SpatialAlarm]
                    ) -> List[SpatialAlarm]:
        """Install a population known up front; ids follow draft order.

        Each draft's ``alarm_id`` is replaced by the next dense id.  On
        an empty registry the index is built at once — the public tree
        packed in one STR pass, each audience list sorted once — and the
        listeners are then told of every alarm in id order; a registry
        that already holds alarms takes the drafts through
        :meth:`install`, one dynamic insert each.
        """
        if self._alarms:
            return [self.install(draft.region, draft.scope, draft.owner_id,
                                 draft.subscribers, draft.moving_target,
                                 draft.label) for draft in drafts]
        alarms = [draft if draft.alarm_id == alarm_id
                  else replace(draft, alarm_id=alarm_id)
                  for alarm_id, draft in enumerate(drafts, self._next_id)]
        self._next_id += len(alarms)
        self._alarms = {alarm.alarm_id: alarm for alarm in alarms}
        self.rebuild_index()
        for alarm in alarms:
            self._notify(alarm.alarm_id, None, alarm.region)
        return alarms

    def remove(self, alarm_id: int) -> bool:
        """Uninstall an alarm; True when it existed."""
        alarm = self._alarms.pop(alarm_id, None)
        if alarm is None:
            return False
        self._unindex(alarm)
        self._notify(alarm_id, alarm.region, None)
        return True

    def relocate(self, alarm_id: int, region: Rect) -> SpatialAlarm:
        """Move an alarm's region (moving alarm target).

        Re-indexes the alarm; returns the updated alarm object.
        """
        alarm = self._alarms[alarm_id]
        self._unindex(alarm)
        updated = alarm.with_region(region)
        self._alarms[alarm_id] = updated
        self._index(updated)
        self._notify(alarm_id, alarm.region, region)
        return updated

    def rebuild_index(self) -> None:
        """Rebuild the index in bulk: STR-pack the tree, sort each list.

        Query results are unchanged — only the tree layout (and with it
        the node-access costs) moves.  Operation counters reset with
        the new index.
        """
        public = []
        members: Dict[int, List[SpatialAlarm]] = {}
        for alarm in self.all_alarms():
            if alarm.scope is AlarmScope.PUBLIC:
                public.append((alarm.alarm_id, alarm.region))
                continue
            for user_id in alarm.subscriber_set(frozenset()):
                members.setdefault(user_id, []).append(alarm)
        self.stats.reset()
        self._tree = self._charging(RStarTree.bulk_load(
            public, max_entries=self._tree.max_entries))
        self._lists = {user_id: _AudienceList(alarms)
                       for user_id, alarms in members.items()}

    def _charging(self, tree: RStarTree) -> RStarTree:
        """``tree``, made to charge its node visits to :attr:`stats`."""
        tree.stats = self.stats
        return tree

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._alarms)

    def get(self, alarm_id: int) -> SpatialAlarm:
        return self._alarms[alarm_id]

    def all_alarms(self) -> List[SpatialAlarm]:
        return [self._alarms[alarm_id] for alarm_id in sorted(self._alarms)]

    @property
    def tree(self) -> RStarTree:
        """The public alarms' R*-tree (for tests).  Its ``stats`` are
        :attr:`stats`, so its ``node_accesses`` count list probes too."""
        return self._tree

    def validate(self) -> None:
        """Check the whole index; raises ``AssertionError`` on breakage.

        The public tree passes :meth:`RStarTree.validate` and holds
        exactly the public alarms under their regions.  Every private or
        shared alarm sits once in the list of each of its owner and
        subscribers and in no other list; no list is empty, each is
        sorted by ``min_x`` with its keys in step, holds the installed
        alarm objects, and its ``reach`` covers every member's width.
        """
        self._tree.validate()
        alarms = self._alarms
        public = sorted((alarm.alarm_id, alarm.region)
                        for alarm in alarms.values()
                        if alarm.scope is AlarmScope.PUBLIC)
        assert sorted(self._tree.items()) == public, \
            "public tree does not hold exactly the public alarms"
        expected: Dict[int, List[int]] = {}
        for alarm_id in sorted(alarms):
            alarm = alarms[alarm_id]
            if alarm.scope is not AlarmScope.PUBLIC:
                for user_id in alarm.subscriber_set(frozenset()):
                    expected.setdefault(user_id, []).append(alarm_id)
        for user_id, own in self._lists.items():
            ids = sorted(alarm.alarm_id for alarm in own.alarms)
            for alarm_id in ids:
                alarm = alarms.get(alarm_id)
                assert alarm is None or alarm.scope is not AlarmScope.PUBLIC, \
                    "public alarm %d in the list of subscriber %d" % (
                        alarm_id, user_id)
            assert ids == expected.get(user_id, []), \
                "list of subscriber %d holds %r, its audience is %r" % (
                    user_id, ids, expected.get(user_id, []))
            assert all(alarm is alarms[alarm.alarm_id]
                       for alarm in own.alarms), \
                "stale alarm object in the list of subscriber %d" % user_id
            assert own.keys == [alarm.region.min_x for alarm in own.alarms], \
                "list keys of subscriber %d out of step" % user_id
            assert all(left <= right
                       for left, right in zip(own.keys, own.keys[1:])), \
                "list of subscriber %d not sorted by min_x" % user_id
            assert all(alarm.region.width <= own.reach
                       for alarm in own.alarms), \
                "reach of subscriber %d below a member's width" % user_id
        missing = sorted(set(expected) - set(self._lists))
        assert not missing, "no list for subscribers %r" % missing

    def relevant_intersecting(self, user_id: int, rect: Rect,
                              exclude_ids: Optional[AbstractSet[int]] = None
                              ) -> List[SpatialAlarm]:
        """Alarms relevant to ``user_id`` whose region overlaps ``rect``.

        Uses the *open* overlap test: alarms merely touching the query
        rectangle's boundary impose no constraint inside it.  This is the
        working set for safe-region computation over a grid cell.
        ``exclude_ids`` carries already-fired alarms (one-shot semantics:
        a fired alarm stops constraining that subscriber).
        """
        alarms = self._alarms
        found = [alarms[alarm_id]
                 for alarm_id in self._tree.search_interior_intersecting(rect)]
        own = self._lists.get(user_id)
        if own is not None:
            self.stats.node_accesses += 1
            qx0, qy0, qx1, qy1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
            keys, reach = own.keys, own.reach
            low = bisect_left(keys, _floor(qx0, reach))
            for alarm in own.alarms[low:bisect_left(keys, qx1, low)]:
                box = alarm.region
                if qx0 < box.max_x and box.min_y < qy1 and qy0 < box.max_y:
                    found.append(alarm)
        if exclude_ids:
            found = [alarm for alarm in found
                     if alarm.alarm_id not in exclude_ids]
        found.sort(key=_by_id)
        return found

    def triggered_at(self, user_id: int, position: Point,
                     exclude_ids: Optional[AbstractSet[int]] = None
                     ) -> List[SpatialAlarm]:
        """Alarms relevant to ``user_id`` triggered at ``position``.

        This is the core position-update evaluation: "which alarms fire
        here?".  Triggering means *interior* containment — the alarm
        fires when the subscriber enters the region, not when it merely
        touches the boundary.
        """
        ids = self._tree.search_containing(position, interior=True)
        alarms = self._alarms
        found = [alarms[alarm_id] for alarm_id in ids] if ids else []
        own = self._lists.get(user_id)
        if own is not None:
            self.stats.node_accesses += 1
            px, py = position.x, position.y
            keys, reach = own.keys, own.reach
            low = bisect_left(keys, _floor(px, reach))
            for alarm in own.alarms[low:bisect_left(keys, px, low)]:
                box = alarm.region
                if px < box.max_x and box.min_y < py < box.max_y:
                    found.append(alarm)
        if not found:
            return found
        if exclude_ids:
            found = [alarm for alarm in found
                     if alarm.alarm_id not in exclude_ids]
        found.sort(key=_by_id)
        return found

    def nearest_relevant_distance(self, user_id: int, position: Point,
                                  exclude_ids: Optional[
                                      AbstractSet[int]] = None) -> float:
        """Distance to the nearest relevant alarm region (inf when none).

        The safe-period baseline divides this by the maximum velocity to
        bound how soon the subscriber could possibly reach any alarm.
        The subscriber's list is walked outward from ``position.x``:
        rightwards until a member's ``min_x`` gap reaches the best
        distance, leftwards until no member ``reach`` wide can close it.
        """
        best = self._tree.nearest_distance(
            position, predicate=((lambda alarm_id: alarm_id not in
                                  exclude_ids) if exclude_ids else None))
        own = self._lists.get(user_id)
        if own is None:
            return best
        self.stats.node_accesses += 1
        px, py = position.x, position.y
        keys, members, reach = own.keys, own.alarms, own.reach
        hypot = math.hypot
        split = bisect_right(keys, px)
        for at in range(split, len(keys)):
            if keys[at] - px >= best:
                break
            alarm = members[at]
            if exclude_ids and alarm.alarm_id in exclude_ids:
                continue
            box = alarm.region
            # Rect.distance_to_point, inlined: min_x > px, so dx is the gap.
            distance = hypot(box.min_x - px,
                             max(box.min_y - py, 0.0, py - box.max_y))
            if distance < best:
                best = distance
        floor = _floor(px, reach + best)
        for at in range(split - 1, -1, -1):
            if keys[at] < floor:
                break
            alarm = members[at]
            if exclude_ids and alarm.alarm_id in exclude_ids:
                continue
            box = alarm.region
            # min_x <= px: dx is how far max_x falls short of px, or 0.
            distance = hypot(max(px - box.max_x, 0.0),
                             max(box.min_y - py, 0.0, py - box.max_y))
            if distance < best:
                best = distance
                floor = _floor(px, reach + best)
        return best


def install_clustered_alarms(registry: AlarmRegistry, universe: Rect,
                             count: int, user_ids: Sequence[int],
                             hotspot_count: int = 12,
                             hotspot_sigma_m: float = 800.0,
                             background_fraction: float = 0.2,
                             public_fraction: float = 0.10,
                             private_to_shared_ratio: float = 2.0,
                             min_side_m: float = 50.0,
                             max_side_m: float = 250.0,
                             seed: int = 23) -> List[SpatialAlarm]:
    """Install an alarm workload clustered around points of interest.

    Real alarm targets (stores, venues, transit stops) cluster in
    hotspots rather than spreading uniformly; this generator draws
    ``hotspot_count`` POI centers uniformly, then places each alarm's
    target as a Gaussian offset (``hotspot_sigma_m``) from a random
    hotspot, with ``background_fraction`` of alarms still uniform.
    Clustering stresses the safe-region techniques where it hurts: cells
    on hotspots hold many alarms (small safe regions, deep pyramids)
    while the countryside stays free.  Scope mixing matches
    :func:`install_random_alarms`.
    """
    if hotspot_count < 1:
        raise ValueError("need at least one hotspot")
    if not (0.0 <= background_fraction <= 1.0):
        raise ValueError("background_fraction must be in [0, 1]")
    rng = random.Random(seed)
    hotspots = [Point(rng.uniform(universe.min_x, universe.max_x),
                      rng.uniform(universe.min_y, universe.max_y))
                for _ in range(hotspot_count)]

    def draw_center() -> Point:
        if rng.random() < background_fraction:
            return Point(rng.uniform(universe.min_x, universe.max_x),
                         rng.uniform(universe.min_y, universe.max_y))
        hotspot = rng.choice(hotspots)
        x = min(max(rng.gauss(hotspot.x, hotspot_sigma_m), universe.min_x),
                universe.max_x)
        y = min(max(rng.gauss(hotspot.y, hotspot_sigma_m), universe.min_y),
                universe.max_y)
        return Point(x, y)

    return _install_alarms(registry, universe, count, user_ids, draw_center,
                           rng, public_fraction, private_to_shared_ratio,
                           min_side_m, max_side_m)


def install_random_alarms(registry: AlarmRegistry, universe: Rect,
                          count: int, user_ids: Sequence[int],
                          public_fraction: float = 0.10,
                          private_to_shared_ratio: float = 2.0,
                          min_side_m: float = 200.0,
                          max_side_m: float = 1000.0,
                          seed: int = 23) -> List[SpatialAlarm]:
    """Install the paper's default alarm workload.

    ``count`` alarms on targets distributed uniformly over ``universe``;
    ``public_fraction`` of them public, the remainder split private:shared
    at ``private_to_shared_ratio`` (the paper's default is 10% public and
    2:1 private:shared).  Owners and shared-subscriber lists are drawn
    uniformly from ``user_ids``, which must be distinct.  Alarm regions
    are axis-aligned squares with side uniform in ``[min_side_m,
    max_side_m]``, clipped to the universe.
    """
    rng = random.Random(seed)

    def draw_center() -> Point:
        return Point(rng.uniform(universe.min_x, universe.max_x),
                     rng.uniform(universe.min_y, universe.max_y))

    return _install_alarms(registry, universe, count, user_ids, draw_center,
                           rng, public_fraction, private_to_shared_ratio,
                           min_side_m, max_side_m)


def _install_alarms(registry: AlarmRegistry, universe: Rect, count: int,
                    user_ids: Sequence[int],
                    draw_center: Callable[[], Point], rng: random.Random,
                    public_fraction: float, private_to_shared_ratio: float,
                    min_side_m: float, max_side_m: float
                    ) -> List[SpatialAlarm]:
    """Shared workload machinery: sizes, scopes, owners, subscribers."""
    if not user_ids:
        raise ValueError("alarm workload needs a user population")
    if not (0.0 <= public_fraction <= 1.0):
        raise ValueError("public_fraction must be in [0, 1]")
    if private_to_shared_ratio < 0:
        raise ValueError("private_to_shared_ratio must be non-negative")
    position = {uid: at for at, uid in enumerate(user_ids)}
    if len(position) != len(user_ids):
        raise ValueError("user ids must be distinct")
    others = len(user_ids) - 1  # subscriber pool: every user but the owner
    drafts: List[SpatialAlarm] = []
    private_share = (private_to_shared_ratio
                     / (1.0 + private_to_shared_ratio))
    for _ in range(count):
        side = rng.uniform(min_side_m, max_side_m)
        region = Rect.from_center(draw_center(), side, side)
        clipped = region.intersection(universe)
        assert clipped is not None  # centers are drawn inside the universe
        owner = rng.choice(user_ids)
        draw = rng.random()
        subscribers: Sequence[int] = ()
        if draw < public_fraction:
            scope = AlarmScope.PUBLIC
        elif rng.random() < private_share:
            scope = AlarmScope.PRIVATE
        else:
            scope = AlarmScope.SHARED
            if others:
                size = min(others, rng.randint(1, MAX_SHARED_SUBSCRIBERS))
                # ``sample`` reads its population by length and index
                # only, so drawing positions of the pool and mapping
                # them past the owner's slot draws the same subscribers
                # as sampling a copy of the user list without the owner.
                skip = position[owner]
                subscribers = [user_ids[at + (at >= skip)]
                               for at in rng.sample(range(others), size)]
            else:
                subscribers = [owner]
        drafts.append(SpatialAlarm(len(drafts), clipped, scope, owner,
                                   frozenset(subscribers)))
    return registry.install_all(drafts)
