"""Grid Bitmap Encoded Safe Region (paper Section 4.1).

GBSR represents the safe region of a base grid cell with a single-level
``G x G`` bitmap: one bit for the whole cell plus one bit per sub-cell.
It is the degenerate pyramid of height 1 — the paper's experiments treat
"h = 1" as the GBSR configuration — and exists mostly to demonstrate the
accuracy/size dilemma that motivates PBSR: a coarse grid wastes safe
area (Fig. 3(b)), a fine grid wastes bits (Fig. 3(c)).
"""

from __future__ import annotations

from typing import Sequence

from ..geometry import Rect
from ..index import Pyramid
from .bitmap import BitmapSafeRegion, PyramidBitmap


class GBSRComputer:
    """Builds single-level grid bitmap safe regions.

    ``resolution`` is the grid arity ``G`` (the paper's Fig. 3 shows 3x3
    and 9x9 variants).
    """

    def __init__(self, resolution: int = 3) -> None:
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        self.resolution = resolution

    def compute(self, cell: Rect, public_obstacles: Sequence[Rect],
                personal_obstacles: Sequence[Rect] = ()
                ) -> BitmapSafeRegion:
        """Safe region of ``cell`` given the relevant alarm regions.

        The public/personal split mirrors :class:`PBSRComputer`'s
        signature so strategies can use either computer; GBSR treats all
        obstacles alike (no sharing optimization at a single level).
        """
        pyramid = Pyramid(cell, fan_cols=self.resolution,
                          fan_rows=self.resolution, height=1)
        obstacles = list(public_obstacles) + list(personal_obstacles)
        return BitmapSafeRegion(PyramidBitmap.from_obstacles(pyramid,
                                                            obstacles))
