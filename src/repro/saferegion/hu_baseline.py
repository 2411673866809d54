"""The prior rectangular safe-region algorithm of Hu, Xu and Lee [10].

Hu et al. ("A Generic Framework for Monitoring Continuous Spatial
Queries over Moving Objects", SIGMOD 2005) compute a rectangular safe
region from the *corners of the constraining regions, each assigned to
the quadrant it falls in*.  The paper reproduced here names two failure
modes of that construction and fixes both (Section 5.2 and Related
Work):

1. **Alarm regions intersecting the axes**: a region straddling a
   quadrant axis contributes its corner to a *neighbouring* quadrant,
   leaving the straddled quadrant unconstrained — the safe region then
   overlaps the alarm, and a subscriber can enter the alarm without ever
   leaving its "safe" region: a missed alarm.
2. **Overlapping alarm regions**: with per-quadrant nearest-corner
   bookkeeping, a corner of region A that lies *inside* region B is
   still used as a constraint even though B already covers it, producing
   erroneous (over- or under-sized) regions.

This module implements the Hu-style construction faithfully enough to
*demonstrate* those failures: each quadrant is capped by the nearest
alarm-region corner that falls inside it (no clamping of straddling
regions, no overlap awareness).  It exists as an experimental baseline —
``tests/saferegion/test_hu_baseline.py`` exhibits concrete unsafe
outputs, and the simulation ablation measures the alarm misses a real
deployment would suffer.  Production code should always use
:class:`~repro.saferegion.MWPSRComputer`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..geometry import Point, Rect
from .base import RectangularSafeRegion


class HuBaselineComputer:
    """Hu et al.-style rectangular safe regions (known-unsafe baseline).

    API-compatible with :class:`MWPSRComputer.compute` so it can drop
    into the rectangular strategy for the ablation; ``heading`` is
    accepted and ignored (the original maximizes unweighted extent).
    """

    def compute(self, position: Point, heading: float, cell: Rect,
                obstacles: Sequence[Rect]) -> "_HuResult":
        """Safe-region rectangle per the corner-per-quadrant construction.

        For each alarm-region corner, the corner constrains only the
        quadrant it geometrically falls in; each quadrant keeps its
        nearest constraining corner, and the rectangle spans between
        those per-quadrant caps (cell-clipped).  Degenerate by design:
        regions straddling an axis or overlapping each other are
        mishandled exactly as in the original.
        """
        if not cell.contains_point(position):
            raise ValueError("subscriber position outside its grid cell")

        # Extents toward +x/+y/-x/-y, initialized at the cell boundary.
        right = cell.max_x - position.x
        top = cell.max_y - position.y
        left = position.x - cell.min_x
        bottom = position.y - cell.min_y

        # Per-quadrant nearest corner: quadrant I caps (right, top), etc.
        caps: List[Tuple[float, float]] = [(right, top), (left, top),
                                           (left, bottom), (right, bottom)]
        best_distance = [math.inf] * 4
        for obstacle in obstacles:
            for corner in obstacle.corners():
                dx = corner.x - position.x
                dy = corner.y - position.y
                quadrant = self._quadrant(dx, dy)
                distance = dx * dx + dy * dy
                if distance < best_distance[quadrant]:
                    best_distance[quadrant] = distance
                    caps[quadrant] = (abs(dx), abs(dy))

        right = min(caps[0][0], caps[3][0], right)
        top = min(caps[0][1], caps[1][1], top)
        left = min(caps[1][0], caps[2][0], left)
        bottom = min(caps[2][1], caps[3][1], bottom)
        rect = Rect(position.x - left, position.y - bottom,
                    position.x + right, position.y + top)
        return _HuResult(rect)

    @staticmethod
    def _quadrant(dx: float, dy: float) -> int:
        if dx >= 0.0:
            return 0 if dy >= 0.0 else 3
        return 1 if dy >= 0.0 else 2


class _HuResult:
    """Result shim matching :class:`MWPSRResult`'s strategy-facing API."""

    __slots__ = ("rect",)

    def __init__(self, rect: Rect) -> None:
        self.rect = rect

    def to_safe_region(self) -> RectangularSafeRegion:
        return RectangularSafeRegion(self.rect)
