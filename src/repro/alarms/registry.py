"""Alarm installation, indexing and relevance resolution.

The registry is the server-side alarm store: installed alarms indexed in
an R*-tree (paper Section 5.1: "position parameters are evaluated against
installed spatial alarms indexed in an R*-tree").  All spatial queries go
through the tree so its node-access counters feed the server cost model.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import (AbstractSet, Callable, Dict, Iterable, List,
                    Optional, Sequence)

from ..geometry import Point, Rect
from ..index import RStarTree
from .alarm import AlarmScope, SpatialAlarm


class AlarmRegistry:
    """Server-side store of installed spatial alarms."""

    def __init__(self, max_tree_entries: int = 16) -> None:
        self._tree = RStarTree(max_entries=max_tree_entries)
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
        self._tree.insert(alarm.alarm_id, region)
        self._notify(alarm.alarm_id, None, region)
        return alarm

    def install_all(self, drafts: Iterable[SpatialAlarm]
                    ) -> List[SpatialAlarm]:
        """Install a population known up front; ids follow draft order.

        Each draft's ``alarm_id`` is replaced by the next dense id.  On
        an empty registry the index is packed in one STR pass and the
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
        removed = self._tree.delete(alarm_id, alarm.region)
        assert removed, "registry and tree out of sync"
        self._notify(alarm_id, alarm.region, None)
        return True

    def relocate(self, alarm_id: int, region: Rect) -> SpatialAlarm:
        """Move an alarm's region (moving alarm target).

        Re-indexes the alarm; returns the updated alarm object.
        """
        alarm = self._alarms[alarm_id]
        self._tree.delete(alarm_id, alarm.region)
        updated = alarm.with_region(region)
        self._alarms[alarm_id] = updated
        self._tree.insert(alarm_id, region)
        self._notify(alarm_id, alarm.region, region)
        return updated

    def rebuild_index(self) -> None:
        """Repack the alarm index with bulk (STR) loading.

        Query results are unchanged — only the tree layout (and with it
        the node-access costs) moves.  Operation counters reset with
        the new tree.
        """
        items = [(alarm.alarm_id, alarm.region)
                 for alarm in self.all_alarms()]
        self._tree = RStarTree.bulk_load(items,
                                         max_entries=self._tree.max_entries)

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
        """The underlying index (exposed for cost accounting and tests)."""
        return self._tree

    def _relevance(self, user_id: int,
                   exclude_ids: Optional[AbstractSet[int]] = None
                   ) -> Callable[[int], bool]:
        """Predicate: alarm is relevant to the user and not excluded.

        ``exclude_ids`` carries already-fired alarms (one-shot semantics:
        a fired alarm stops constraining that subscriber).
        """
        alarms = self._alarms
        if exclude_ids:
            return lambda alarm_id: (alarm_id not in exclude_ids
                                     and alarms[alarm_id].is_relevant_to(
                                         user_id))
        return lambda alarm_id: alarms[alarm_id].is_relevant_to(user_id)

    def relevant_intersecting(self, user_id: int, rect: Rect,
                              exclude_ids: Optional[AbstractSet[int]] = None
                              ) -> List[SpatialAlarm]:
        """Alarms relevant to ``user_id`` whose region overlaps ``rect``.

        Uses the *open* overlap test: alarms merely touching the query
        rectangle's boundary impose no constraint inside it.  This is the
        working set for safe-region computation over a grid cell.
        """
        ids = self._tree.search_interior_intersecting(
            rect, predicate=self._relevance(user_id, exclude_ids))
        return [self._alarms[alarm_id] for alarm_id in sorted(ids)]

    def triggered_at(self, user_id: int, position: Point,
                     exclude_ids: Optional[AbstractSet[int]] = None
                     ) -> List[SpatialAlarm]:
        """Alarms relevant to ``user_id`` triggered at ``position``.

        This is the core position-update evaluation: "which alarms fire
        here?".  Triggering means *interior* containment — the alarm
        fires when the subscriber enters the region, not when it merely
        touches the boundary.  The index is searched unfiltered and the
        rare hits are filtered after, so a report with none builds no
        relevance predicate.
        """
        ids = self._tree.search_containing(position, interior=True)
        if not ids:
            return []
        alarms = self._alarms
        return [alarms[alarm_id] for alarm_id in sorted(ids)
                if not (exclude_ids and alarm_id in exclude_ids)
                and alarms[alarm_id].is_relevant_to(user_id)]

    def nearest_relevant_distance(self, user_id: int, position: Point,
                                  exclude_ids: Optional[
                                      AbstractSet[int]] = None) -> float:
        """Distance to the nearest relevant alarm region (inf when none).

        The safe-period baseline divides this by the maximum velocity to
        bound how soon the subscriber could possibly reach any alarm.
        """
        return self._tree.nearest_distance(
            position, predicate=self._relevance(user_id, exclude_ids))


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
                          max_shared_subscribers: int = 5,
                          seed: int = 23) -> List[SpatialAlarm]:
    """Install the paper's default alarm workload.

    ``count`` alarms on targets distributed uniformly over ``universe``;
    ``public_fraction`` of them public, the remainder split private:shared
    at ``private_to_shared_ratio`` (the paper's default is 10% public and
    2:1 private:shared).  Owners and shared-subscriber lists are drawn
    uniformly from ``user_ids``.  Alarm regions are axis-aligned squares
    with side uniform in ``[min_side_m, max_side_m]``, clipped to the
    universe.
    """
    rng = random.Random(seed)

    def draw_center() -> Point:
        return Point(rng.uniform(universe.min_x, universe.max_x),
                     rng.uniform(universe.min_y, universe.max_y))

    return _install_alarms(registry, universe, count, user_ids, draw_center,
                           rng, public_fraction, private_to_shared_ratio,
                           min_side_m, max_side_m, max_shared_subscribers)


def _install_alarms(registry: AlarmRegistry, universe: Rect, count: int,
                    user_ids: Sequence[int],
                    draw_center: Callable[[], Point], rng: random.Random,
                    public_fraction: float, private_to_shared_ratio: float,
                    min_side_m: float, max_side_m: float,
                    max_shared_subscribers: int = 5) -> List[SpatialAlarm]:
    """Shared workload machinery: sizes, scopes, owners, subscribers."""
    if not user_ids:
        raise ValueError("alarm workload needs a user population")
    if not (0.0 <= public_fraction <= 1.0):
        raise ValueError("public_fraction must be in [0, 1]")
    if private_to_shared_ratio < 0:
        raise ValueError("private_to_shared_ratio must be non-negative")
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
            pool = [uid for uid in user_ids if uid != owner]
            if pool:
                size = min(len(pool),
                           rng.randint(1, max_shared_subscribers))
                subscribers = rng.sample(pool, size)
            else:
                subscribers = [owner]
        drafts.append(SpatialAlarm(len(drafts), clipped, scope, owner,
                                   frozenset(subscribers)))
    return registry.install_all(drafts)
