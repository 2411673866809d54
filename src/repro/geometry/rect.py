"""Axis-aligned rectangles.

Rectangles are the workhorse geometry of the whole system: spatial alarm
regions, R*-tree bounding boxes, grid cells and rectangular safe regions
are all :class:`Rect` instances.  A rectangle is closed on all sides, i.e.
it contains its boundary; "interior" variants of the predicates are
provided where the distinction matters (a safe region may share an edge
with an alarm region without triggering it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from ..values import slot_init
from .eps import fzero_exact
from .point import Point


@slot_init
@dataclass(frozen=True, slots=True)
class Rect:
    """An immutable axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Degenerate rectangles (zero width and/or height) are permitted: they
    arise naturally as the safe region of a subscriber pinned against
    alarm regions, and as bounding boxes of point data in the R*-tree.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "malformed rectangle: (%r, %r, %r, %r)"
                % (self.min_x, self.min_y, self.max_x, self.max_y))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, p1: Point, p2: Point) -> "Rect":
        """Build a rectangle from two opposite corners in any order."""
        return cls(min(p1.x, p2.x), min(p1.y, p2.y),
                   max(p1.x, p2.x), max(p1.y, p2.y))

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "Rect":
        """Build a rectangle centered at ``center``."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(center.x - half_w, center.y - half_h,
                   center.x + half_w, center.y + half_h)

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimum bounding rectangle of a non-empty collection."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot bound an empty collection")
        return cls(min(r.min_x for r in rects), min(r.min_y for r in rects),
                   max(r.max_x for r in rects), max(r.max_y for r in rects))

    @classmethod
    def point_rect(cls, p: Point) -> "Rect":
        """The degenerate rectangle covering exactly one point."""
        return cls(p.x, p.y, p.x, p.y)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def margin(self) -> float:
        """Half-perimeter; the R*-tree split criterion calls this margin."""
        return self.width + self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0,
                     (self.min_y + self.max_y) / 2.0)

    @property
    def bottom_left(self) -> Point:
        return Point(self.min_x, self.min_y)

    @property
    def top_right(self) -> Point:
        return Point(self.max_x, self.max_y)

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from bottom-left."""
        return (Point(self.min_x, self.min_y), Point(self.max_x, self.min_y),
                Point(self.max_x, self.max_y), Point(self.min_x, self.max_y))

    def is_degenerate(self) -> bool:
        """True when the rectangle has *exactly* zero area.

        Exact-zero is intended: degenerate rectangles are constructed
        from bit-identical coordinates (:meth:`point_rect`, zero-extent
        ``from_center``), never approximated into existence.
        """
        return fzero_exact(self.width) or fzero_exact(self.height)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """Closed containment: boundary points are inside."""
        return (self.min_x <= p.x <= self.max_x
                and self.min_y <= p.y <= self.max_y)

    def interior_contains_point(self, p: Point) -> bool:
        """Open containment: boundary points are outside."""
        return (self.min_x < p.x < self.max_x
                and self.min_y < p.y < self.max_y)

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely within this rectangle."""
        return (self.min_x <= other.min_x and other.max_x <= self.max_x
                and self.min_y <= other.min_y and other.max_y <= self.max_y)

    def intersects(self, other: "Rect") -> bool:
        """Closed intersection test (shared edges count as intersecting)."""
        return (self.min_x <= other.max_x and other.min_x <= self.max_x
                and self.min_y <= other.max_y and other.min_y <= self.max_y)

    def interior_intersects(self, other: "Rect") -> bool:
        """Open intersection test: touching along an edge does not count.

        Safe-region correctness is stated in terms of interiors — a safe
        region may legitimately abut an alarm region, since the alarm only
        fires when the subscriber *enters* the alarm region.
        """
        return (self.min_x < other.max_x and other.min_x < self.max_x
                and self.min_y < other.max_y and other.min_y < self.max_y)

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        min_x = max(self.min_x, other.min_x)
        min_y = max(self.min_y, other.min_y)
        max_x = min(self.max_x, other.max_x)
        max_y = min(self.max_y, other.max_y)
        if min_x > max_x or min_y > max_y:
            return None
        return Rect(min_x, min_y, max_x, max_y)

    def intersection_area(self, other: "Rect") -> float:
        """Area of overlap; zero when disjoint (no allocation)."""
        dx = min(self.max_x, other.max_x) - max(self.min_x, other.min_x)
        if dx <= 0.0:
            return 0.0
        dy = min(self.max_y, other.max_y) - max(self.min_y, other.min_y)
        if dy <= 0.0:
            return 0.0
        return dx * dy

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two rectangles."""
        return Rect(min(self.min_x, other.min_x), min(self.min_y, other.min_y),
                    max(self.max_x, other.max_x), max(self.max_y, other.max_y))

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed for this rectangle to cover ``other``.

        This is the R*-tree ChooseSubtree cost; kept allocation-free
        because it sits on the index hot path.
        """
        union_w = max(self.max_x, other.max_x) - min(self.min_x, other.min_x)
        union_h = max(self.max_y, other.max_y) - min(self.min_y, other.min_y)
        return union_w * union_h - self.area

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side.

        A negative margin shrinks the rectangle; shrinking past the center
        raises ``ValueError`` via the constructor validation.
        """
        return Rect(self.min_x - margin, self.min_y - margin,
                    self.max_x + margin, self.max_y + margin)

    def translated(self, dx: float, dy: float) -> "Rect":
        """Rectangle shifted by ``(dx, dy)``."""
        return Rect(self.min_x + dx, self.min_y + dy,
                    self.max_x + dx, self.max_y + dy)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distance_to_point(self, p: Point) -> float:
        """Euclidean distance from ``p`` to the rectangle (0 inside).

        This is the pessimistic reach bound used by the safe-period
        baseline: a subscriber at ``p`` moving at speed ``v`` cannot enter
        the rectangle before ``distance_to_point(p) / v`` seconds.
        """
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def distance_to_rect(self, other: "Rect") -> float:
        """Minimum distance between two rectangles (0 when intersecting)."""
        dx = max(self.min_x - other.max_x, 0.0, other.min_x - self.max_x)
        dy = max(self.min_y - other.max_y, 0.0, other.min_y - self.max_y)
        return math.hypot(dx, dy)

    def boundary_distance(self, p: Point) -> float:
        """Distance from an interior point ``p`` to the nearest edge.

        Used by clients to decide how soon they could possibly exit their
        rectangular safe region; returns 0 for points on or outside the
        boundary.
        """
        if not self.contains_point(p):
            return 0.0
        return min(p.x - self.min_x, self.max_x - p.x,
                   p.y - self.min_y, self.max_y - p.y)

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def grid_split(self, columns: int, rows: int) -> Iterator["Rect"]:
        """Yield ``columns x rows`` equi-sized sub-rectangles.

        Cells are yielded in raster-scan order — top row first, left to
        right — matching the bitmap bit ordering in Fig. 3 of the paper.
        """
        if columns < 1 or rows < 1:
            raise ValueError("grid_split requires positive factors")
        # Ratio-form edges: adjacent (and nested) cells share boundaries
        # as bit-identical floats.  The outermost edges are taken from
        # the parent directly — ``min + width * k / k`` can round past
        # ``max``, which would let a border cell poke outside.
        for row in range(rows - 1, -1, -1):
            for col in range(columns):
                yield Rect(self.min_x + self.width * col / columns,
                           self.min_y + self.height * row / rows,
                           self.max_x if col + 1 == columns
                           else self.min_x + self.width * (col + 1) / columns,
                           self.max_y if row + 1 == rows
                           else self.min_y + self.height * (row + 1) / rows)
