"""An R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).

The paper indexes installed spatial alarms in an R*-tree and evaluates
subscriber position updates against it; this module is that substrate,
implemented from scratch.  The alarm registry keeps its *public* alarms
in one such tree (each subscriber's private and shared alarms live in a
short sorted list beside it, see :mod:`repro.alarms.registry`), so every
query here answers for all items and knows nothing of audiences.  It
provides the three query shapes the alarm server needs:

* ``search_intersecting(rect)`` / ``search_interior_intersecting(rect)``
  — all items whose region intersects a query rectangle, closed or open
  (used to collect the alarms over a grid cell for safe-region
  computation);
* ``search_containing(point)`` — all items whose region contains a point
  (used to evaluate a raw position update, i.e. "which alarms fire
  here?"; see *Point queries* below);
* ``nearest_distance(point, predicate)`` — distance from a point to the
  nearest indexed region whose item passes ``predicate`` (used by the
  safe-period baseline's pessimistic bound, filtering out alarms that
  already fired for the subscriber).

The implementation follows the original paper: ChooseSubtree picks the
child needing least *overlap* enlargement at the leaf level and least
*area* enlargement above it; the first overflow on each level during an
insertion is handled by forced reinsertion of the 30% of entries farthest
from the node center; splits choose the axis minimizing total margin and
the distribution minimizing overlap (ties by area).

Every node visit increments ``self.stats.node_accesses`` so the
simulation's server cost model can report deterministic operation counts
alongside wall-clock time.

Point queries descend by x-slab.  Each internal node keeps, built on the
first query that reaches it, the sorted distinct ``min_x``/``max_x``
values of its entries and, for every open slab between two neighbours,
the ``(min_y, max_y, child)`` of each entry spanning that slab.  A point
strictly inside a slab lies inside exactly those entries' x-extents, so
one ``bisect_right`` on ``x`` and a y-test per spanning entry pick the
children the entry scan would pick, in the same order; a point exactly
on a slab edge falls back to the scan, which keeps the closed test
exact.  Leaves keep the scan (their tables would cost far more memory
than they save).  Every change to a node's entries or to an entry's
rectangle clears that node's table, and :meth:`RStarTree.validate`
checks each cached table against a fresh build.  The nodes visited, and
so ``node_accesses``, are those of the plain scan.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..geometry import Point, Rect

DEFAULT_MAX_ENTRIES = 16
REINSERT_FRACTION = 0.3
MIN_FILL_FRACTION = 0.4


@dataclass
class TreeStats:
    """Deterministic operation counters for the cost model."""

    node_accesses: int = 0
    splits: int = 0
    reinserts: int = 0

    def reset(self) -> None:
        self.node_accesses = 0
        self.splits = 0
        self.reinserts = 0


@dataclass(slots=True)
class _Entry:
    """A node slot: a bounding rectangle plus either a child or an item."""

    rect: Rect
    child: Optional["_Node"] = None
    item: Any = None


#: An internal node's x-slab table: the sorted distinct x edges of its
#: entries, and per slab ``k`` (between ``edges[k - 1]`` and
#: ``edges[k]``, both open) the ``(min_y, max_y, child)`` of every entry
#: spanning it, in entry order.
_SlabTable = Tuple[Tuple[float, ...],
                  List[Tuple[Tuple[float, float, "_Node"], ...]]]


class _Node:
    __slots__ = ("leaf", "entries", "parent", "slabs")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: List[_Entry] = []
        self.parent: Optional["_Node"] = None
        #: The x-slab table of an internal node; None until a point
        #: query needs it and again after any change to ``entries``.
        self.slabs: Optional[_SlabTable] = None

    def mbr(self) -> Rect:
        return Rect.bounding(entry.rect for entry in self.entries)

    def slab_table(self) -> _SlabTable:
        """Build the x-slab table: one sweep, two bisects per entry."""
        edges = tuple(sorted({x for entry in self.entries
                              for x in (entry.rect.min_x, entry.rect.max_x)}))
        spans: List[List[Tuple[float, float, _Node]]] = [
            [] for _ in range(len(edges) + 1)]
        for entry in self.entries:
            box = entry.rect
            span = (box.min_y, box.max_y, entry.child)
            for slab in range(bisect_left(edges, box.min_x) + 1,
                              bisect_left(edges, box.max_x) + 1):
                spans[slab].append(span)  # type: ignore[arg-type]
        return edges, [tuple(slab) for slab in spans]


class RStarTree:
    """A dynamic R*-tree over ``(item, Rect)`` pairs.

    ``item`` may be any hashable or unhashable object; deletion matches by
    identity-or-equality on the item within the supplied rectangle.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, int(max_entries * MIN_FILL_FRACTION))
        self.reinsert_count = max(1, int(max_entries * REINSERT_FRACTION))
        self.stats = TreeStats()
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, items: List[Tuple[Any, Rect]],
                  max_entries: int = DEFAULT_MAX_ENTRIES) -> "RStarTree":
        """Build a packed tree with Sort-Tile-Recursive (STR) loading.

        STR sorts the items by x-center, slices them into vertical runs
        of ``sqrt(n / max_entries)`` tiles, sorts each run by y-center
        and packs leaves in order; upper levels pack the same way over
        node centers.  The result is a valid R*-tree (the structural
        invariants, including minimum fill, hold — trailing nodes borrow
        from their left sibling when short) that is far faster to build
        than one grown by repeated insertion, and fuller: 16 entries a
        leaf against the ~11 forced reinsertion settles at, so a point
        query reads up to a fifth more nodes.  The alarm registry uses
        it whenever an alarm population is known up front.
        """
        tree = cls(max_entries=max_entries)
        if not items:
            return tree
        entries = [_Entry(rect=rect, item=item) for item, rect in items]
        level_nodes = tree._pack_level(entries, leaf=True)
        height = 1
        while len(level_nodes) > 1:
            parent_entries = [_Entry(rect=node.mbr(), child=node)
                              for node in level_nodes]
            level_nodes = tree._pack_level(parent_entries, leaf=False)
            height += 1
        tree._root = level_nodes[0]
        tree._root.parent = None
        tree._height = height
        tree._size = len(items)
        return tree

    def _pack_level(self, entries: List[_Entry],
                    leaf: bool) -> List["_Node"]:
        """Pack entries into nodes of one level, STR-style."""
        per_node = self.max_entries
        node_count = max(1, math.ceil(len(entries) / per_node))
        slice_count = max(1, math.ceil(math.sqrt(node_count)))
        run_length = slice_count * per_node

        entries = sorted(entries, key=lambda e: e.rect.center.x)
        groups: List[List[_Entry]] = []
        for run_start in range(0, len(entries), run_length):
            run = sorted(entries[run_start:run_start + run_length],
                         key=lambda e: e.rect.center.y)
            for start in range(0, len(run), per_node):
                groups.append(run[start:start + per_node])
        # Re-balance a short trailing group so non-root nodes satisfy the
        # minimum fill invariant.
        if len(groups) > 1 and len(groups[-1]) < self.min_entries:
            needed = self.min_entries - len(groups[-1])
            donor = groups[-2]
            groups[-1] = donor[len(donor) - needed:] + groups[-1]
            groups[-2] = donor[:len(donor) - needed]

        nodes: List[_Node] = []
        for group in groups:
            node = _Node(leaf=leaf)
            node.entries = group
            for entry in group:
                if entry.child is not None:
                    entry.child.parent = node
            nodes.append(node)
        return nodes

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def insert(self, item: Any, rect: Rect) -> None:
        """Insert ``item`` with spatial extent ``rect``."""
        self._insert_entry(_Entry(rect=rect, item=item), target_level=0,
                           reinsert_levels=set())
        self._size += 1

    def delete(self, item: Any, rect: Rect) -> bool:
        """Remove one occurrence of ``item`` indexed under ``rect``.

        Returns True when an entry was found and removed.  Underfull nodes
        on the path are dissolved and their entries reinserted (the
        CondenseTree step of the classic algorithm).
        """
        found = self._find_leaf(self._root, item, rect)
        if found is None:
            return False
        leaf, entry_index = found
        del leaf.entries[entry_index]
        self._condense(leaf)
        self._size -= 1
        if not self._root.leaf and len(self._root.entries) == 1:
            self._root = (
                self._root.entries[0].child)  # type: ignore[assignment]
            self._root.parent = None
            self._height -= 1
        return True

    # The four query loops sit under every uplink, hence the inlined
    # comparisons and the once-per-query node-access charge.
    def search_intersecting(self, rect: Rect) -> List[Any]:
        """All items whose rectangle intersects ``rect`` (closed test)."""
        qx0, qy0, qx1, qy1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        results: List[Any] = []
        stack = [self._root]
        accesses = 0
        while stack:
            node = stack.pop()
            accesses += 1
            leaf = node.leaf
            for entry in node.entries:
                box = entry.rect
                if (box.min_x <= qx1 and qx0 <= box.max_x
                        and box.min_y <= qy1 and qy0 <= box.max_y):
                    if not leaf:
                        stack.append(entry.child)  # type: ignore[arg-type]
                    else:
                        results.append(entry.item)
        self.stats.node_accesses += accesses
        return results

    def search_interior_intersecting(self, rect: Rect) -> List[Any]:
        """All items whose rectangle interior-overlaps ``rect``.

        Safe-region computation uses the open test: an alarm that merely
        touches the grid-cell boundary imposes no constraint inside it.
        Internal descent uses the closed test, a correct superset.
        """
        qx0, qy0, qx1, qy1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        results: List[Any] = []
        stack = [self._root]
        accesses = 0
        while stack:
            node = stack.pop()
            accesses += 1
            if node.leaf:
                for entry in node.entries:
                    box = entry.rect
                    if (box.min_x < qx1 and qx0 < box.max_x
                            and box.min_y < qy1 and qy0 < box.max_y):
                        results.append(entry.item)
            else:
                for entry in node.entries:
                    box = entry.rect
                    if (box.min_x <= qx1 and qx0 <= box.max_x
                            and box.min_y <= qy1 and qy0 <= box.max_y):
                        stack.append(entry.child)  # type: ignore[arg-type]
        self.stats.node_accesses += accesses
        return results

    def search_containing(self, point: Point,
                          interior: bool = False) -> List[Any]:
        """All items whose rectangle contains ``point``.

        With ``interior=True`` the leaf test is open containment (points
        on an item's boundary do not match) — the alarm-trigger
        semantics.  Internal descent always uses the closed test, which
        is a correct superset; it reads the node's x-slab table (see the
        module docstring) unless ``point`` lies on one of its edges.
        """
        px, py = point.x, point.y
        results: List[Any] = []
        stack = [self._root]
        accesses = 0
        while stack:
            node = stack.pop()
            accesses += 1
            if node.leaf:
                for entry in node.entries:
                    box = entry.rect
                    if (box.min_x <= px <= box.max_x
                            and box.min_y <= py <= box.max_y
                            and (not interior
                                 or (box.min_x < px < box.max_x
                                     and box.min_y < py < box.max_y))):
                        results.append(entry.item)
                continue
            table = node.slabs
            if table is None:
                table = node.slabs = node.slab_table()
            edges, slabs = table
            slab = bisect_right(edges, px)
            if slab and edges[slab - 1] == px:
                for entry in node.entries:
                    box = entry.rect
                    if (box.min_x <= px <= box.max_x
                            and box.min_y <= py <= box.max_y):
                        stack.append(entry.child)  # type: ignore[arg-type]
                continue
            for min_y, max_y, child in slabs[slab]:
                if min_y <= py <= max_y:
                    stack.append(child)
        self.stats.node_accesses += accesses
        return results

    def nearest_distance(self, point: Point,
                         predicate: Optional[Callable[[Any], bool]] = None
                         ) -> float:
        """Distance from ``point`` to the nearest matching item's rectangle.

        Returns ``math.inf`` when the tree holds no matching item.  This
        is a best-first branch-and-bound over node MBRs — the standard
        nearest-neighbour descent specialised to distance-only output.
        """
        px, py = point.x, point.y
        hypot = math.hypot
        best = math.inf
        counter = 0  # tie-breaker so heap never compares nodes
        heap: List[Tuple[float, int, _Node]] = [(0.0, counter, self._root)]
        accesses = 0
        while heap:
            lower_bound, _, node = heapq.heappop(heap)
            if lower_bound >= best:
                break
            accesses += 1
            leaf = node.leaf
            for entry in node.entries:
                box = entry.rect
                # Rect.distance_to_point, inlined.
                distance = hypot(max(box.min_x - px, 0.0, px - box.max_x),
                                 max(box.min_y - py, 0.0, py - box.max_y))
                if distance >= best:
                    continue
                if not leaf:
                    counter += 1
                    heapq.heappush(heap, (distance, counter, entry.child))
                elif predicate is None or predicate(entry.item):
                    best = distance
        self.stats.node_accesses += accesses
        return best

    def items(self) -> Iterator[Tuple[Any, Rect]]:
        """Iterate over every ``(item, rect)`` pair in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.leaf:
                    yield entry.item, entry.rect
                else:
                    stack.append(entry.child)  # type: ignore[arg-type]

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Verified invariants: every non-root node holds between
        ``min_entries`` and ``max_entries`` entries; internal entries'
        rectangles equal their child's MBR; every cached x-slab table
        equals a fresh build and leaves cache none; all leaves sit at the
        same depth; parent pointers are consistent; the item count
        matches ``len(self)``.
        """
        leaf_depths: List[int] = []
        count = 0

        def walk(node: _Node, depth: int, is_root: bool) -> None:
            nonlocal count
            if not is_root:
                assert len(node.entries) >= self.min_entries, "underfull node"
            assert len(node.entries) <= self.max_entries, "overfull node"
            if node.leaf:
                assert node.slabs is None, "slab table on a leaf"
                leaf_depths.append(depth)
                count += len(node.entries)
                return
            assert node.slabs is None or node.slabs == node.slab_table(), \
                "stale slab table"
            for entry in node.entries:
                child = entry.child
                assert child is not None, "internal entry without child"
                assert child.parent is node, "broken parent pointer"
                assert entry.rect == child.mbr(), "stale bounding rectangle"
                walk(child, depth + 1, is_root=False)

        if self._size == 0:
            assert self._root.leaf and not self._root.entries
            return
        walk(self._root, 0, is_root=True)
        assert len(set(leaf_depths)) == 1, "leaves at different depths"
        assert count == self._size, "size counter out of sync"

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: _Entry, target_level: int,
                      reinsert_levels: set) -> None:
        node = self._choose_subtree(entry.rect, target_level)
        node.entries.append(entry)
        node.slabs = None
        if entry.child is not None:
            entry.child.parent = node
        self._adjust_upward(node)
        if len(node.entries) > self.max_entries:
            self._overflow(node, target_level, reinsert_levels)

    def _choose_subtree(self, rect: Rect, target_level: int) -> _Node:
        node = self._root
        level = self._height - 1
        while level > target_level:
            self.stats.node_accesses += 1
            child_is_leaf = (level - 1) == 0
            if child_is_leaf and not node.leaf:
                entry = self._least_overlap_child(node, rect)
            else:
                entry = self._least_area_child(node, rect)
            node = entry.child  # type: ignore[assignment]
            level -= 1
        return node

    @staticmethod
    def _least_area_child(node: _Node, rect: Rect) -> _Entry:
        best = None
        best_key: Tuple[float, float] = (math.inf, math.inf)
        for entry in node.entries:
            key = (entry.rect.enlargement(rect), entry.rect.area)
            if key < best_key:
                best_key = key
                best = entry
        assert best is not None
        return best

    @staticmethod
    def _least_overlap_child(node: _Node, rect: Rect) -> _Entry:
        """ChooseSubtree at the level above leaves: minimise overlap growth.

        The key is ``(overlap growth, area enlargement, area)``, on plain
        floats.  Overlap growth is never negative and is exactly zero
        for a child that already contains ``rect``, so once a
        zero-growth child leads, the O(M) overlap sums are only run for
        children that could still beat it on enlargement and area.
        """
        rx0, ry0, rx1, ry1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        boxes = [(entry.rect.min_x, entry.rect.min_y,
                  entry.rect.max_x, entry.rect.max_y)
                 for entry in node.entries]
        best = -1
        best_key: Tuple[float, float, float] = (math.inf, math.inf, math.inf)
        for index, (x0, y0, x1, y1) in enumerate(boxes):
            area = (x1 - x0) * (y1 - y0)
            ex0 = x0 if x0 < rx0 else rx0
            ey0 = y0 if y0 < ry0 else ry0
            ex1 = x1 if x1 > rx1 else rx1
            ey1 = y1 if y1 > ry1 else ry1
            enlargement = (ex1 - ex0) * (ey1 - ey0) - area
            if best_key[0] == 0.0 and (enlargement, area) >= best_key[1:]:
                continue
            growth = 0.0
            if not (ex0 == x0 and ey0 == y0 and ex1 == x1 and ey1 == y1):
                before = after = 0.0
                for other, (ox0, oy0, ox1, oy1) in enumerate(boxes):
                    if other == index:
                        continue
                    dx = (ex1 if ex1 < ox1 else ox1) - (
                        ex0 if ex0 > ox0 else ox0)
                    dy = (ey1 if ey1 < oy1 else oy1) - (
                        ey0 if ey0 > oy0 else oy0)
                    if dx <= 0.0 or dy <= 0.0:
                        continue  # the smaller box cannot overlap either
                    after += dx * dy
                    dx = (x1 if x1 < ox1 else ox1) - (x0 if x0 > ox0 else ox0)
                    dy = (y1 if y1 < oy1 else oy1) - (y0 if y0 > oy0 else oy0)
                    if dx > 0.0 and dy > 0.0:
                        before += dx * dy
                growth = after - before
            key = (growth, enlargement, area)
            if key < best_key:
                best_key = key
                best = index
        return node.entries[best]

    def _overflow(self, node: _Node, level: int, reinsert_levels: set) -> None:
        is_root = node.parent is None
        if not is_root and level not in reinsert_levels:
            reinsert_levels.add(level)
            self._forced_reinsert(node, level, reinsert_levels)
        else:
            self._split(node, level, reinsert_levels)

    def _forced_reinsert(self, node: _Node, level: int,
                         reinsert_levels: set) -> None:
        """Evict the entries farthest from the node center and re-add them."""
        self.stats.reinserts += 1
        center = node.mbr().center
        node.entries.sort(
            key=lambda e: e.rect.center.squared_distance_to(center))
        evicted = node.entries[-self.reinsert_count:]
        del node.entries[-self.reinsert_count:]
        node.slabs = None
        self._adjust_upward(node)
        # Close reinsert: nearest evictees first, as the R* paper found best.
        for entry in evicted:
            self._insert_entry(entry, level, reinsert_levels)

    def _split(self, node: _Node, level: int, reinsert_levels: set) -> None:
        self.stats.splits += 1
        first_group, second_group = self._choose_split(node.entries)

        node.entries = first_group
        node.slabs = None
        for entry in node.entries:
            if entry.child is not None:
                entry.child.parent = node

        sibling = _Node(leaf=node.leaf)
        sibling.entries = second_group
        for entry in sibling.entries:
            if entry.child is not None:
                entry.child.parent = sibling

        if node.parent is None:
            new_root = _Node(leaf=False)
            new_root.entries = [
                _Entry(rect=node.mbr(), child=node),
                _Entry(rect=sibling.mbr(), child=sibling),
            ]
            node.parent = new_root
            sibling.parent = new_root
            self._root = new_root
            self._height += 1
            return

        parent = node.parent
        for entry in parent.entries:
            if entry.child is node:
                entry.rect = node.mbr()
                break
        parent.entries.append(_Entry(rect=sibling.mbr(), child=sibling))
        parent.slabs = None
        sibling.parent = parent
        self._adjust_upward(parent)
        if len(parent.entries) > self.max_entries:
            self._overflow(parent, level + 1, reinsert_levels)

    def _choose_split(self,
                      entries: List[_Entry]) -> Tuple[List[_Entry],
                                                      List[_Entry]]:
        """R* split: axis by minimum margin, distribution by overlap/area."""
        best_axis_margin = math.inf
        best_axis_distributions = None
        for axis_key_low, axis_key_high in (
                (lambda e: (e.rect.min_x, e.rect.max_x),
                 lambda e: (e.rect.max_x, e.rect.min_x)),
                (lambda e: (e.rect.min_y, e.rect.max_y),
                 lambda e: (e.rect.max_y, e.rect.min_y))):
            margin_sum = 0.0
            distributions = []
            for sort_key in (axis_key_low, axis_key_high):
                ordered = sorted(entries, key=sort_key)
                for split_at in range(self.min_entries,
                                      len(ordered) - self.min_entries + 1):
                    left = ordered[:split_at]
                    right = ordered[split_at:]
                    left_mbr = Rect.bounding(e.rect for e in left)
                    right_mbr = Rect.bounding(e.rect for e in right)
                    margin_sum += left_mbr.margin + right_mbr.margin
                    distributions.append((left, right, left_mbr, right_mbr))
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis_distributions = distributions
        assert best_axis_distributions is not None

        best_key = (math.inf, math.inf)
        best_split = None
        for left, right, left_mbr, right_mbr in best_axis_distributions:
            key = (left_mbr.intersection_area(right_mbr),
                   left_mbr.area + right_mbr.area)
            if key < best_key:
                best_key = key
                best_split = (left, right)
        assert best_split is not None
        return list(best_split[0]), list(best_split[1])

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------
    def _find_leaf(self, node: _Node, item: Any,
                   rect: Rect) -> Optional[Tuple[_Node, int]]:
        self.stats.node_accesses += 1
        if node.leaf:
            for index, entry in enumerate(node.entries):
                if entry.rect == rect and (entry.item is item
                                           or entry.item == item):
                    return node, index
            return None
        for entry in node.entries:
            if entry.rect.contains_rect(rect):
                found = self._find_leaf(entry.child, item, rect)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        """Dissolve underfull nodes along the path to the root, reinserting."""
        orphans: List[Tuple[_Entry, int]] = []
        level = 0
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                for index, entry in enumerate(parent.entries):
                    if entry.child is node:
                        del parent.entries[index]
                        break
                parent.slabs = None
                orphans.extend((entry, level) for entry in node.entries)
            else:
                mbr = node.mbr()
                for entry in parent.entries:
                    if entry.child is node:
                        if entry.rect != mbr:
                            entry.rect = mbr
                            parent.slabs = None
                        break
            node = parent
            level += 1
        for entry, entry_level in orphans:
            self._insert_entry(entry, entry_level, reinsert_levels=set())

    # ------------------------------------------------------------------
    def _adjust_upward(self, node: _Node) -> None:
        """Refresh bounding rectangles from ``node`` towards the root.

        The classic AdjustTree: the walk stops at the first ancestor
        entry whose rectangle the change leaves as it was, since nothing
        above it moves either.  Each rectangle that does change clears
        its node's slab table.
        """
        current = node
        while current.parent is not None:
            parent = current.parent
            mbr = current.mbr()
            for entry in parent.entries:
                if entry.child is current:
                    break
            if entry.rect == mbr:
                return
            entry.rect = mbr
            parent.slabs = None
            current = parent
