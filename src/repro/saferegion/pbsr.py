"""Pyramid Bitmap Encoded Safe Region (paper Sections 4.1 and 4.2).

PBSR splits only the *unsafe* (bit 0) cells, level by level, up to a
client-chosen pyramid height ``h``.  The height trades bitmap size
against coverage (Proposition 3): powerful clients request tall
pyramids and get finer safe regions; weak clients request short ones.

Height 1 is GBSR (Section 4.1): a single-level ``fan x fan`` grid
bitmap, one bit for the whole cell plus one per sub-cell.  The paper's
experiments treat "h = 1" as the GBSR configuration; it exists mostly
to demonstrate the accuracy/size dilemma that motivates PBSR — a coarse
grid wastes safe area (Fig. 3(b)), a fine grid wastes bits (Fig. 3(c)).

The computer is a stateless function of ``(cell, obstacles)``, or of
``(base, obstacles)`` for an edit: the cell's bitmap over other alarms
with these added, where only the blocks the added alarms touch are
emitted afresh.  The server-side sharing of public-alarm regions across
subscribers (Section 4.2, last paragraph) lives in the server's state,
not here: see :mod:`repro.saferegion.cache`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..geometry import Rect
from ..index import DEFAULT_FAN, Pyramid
from .bitmap import PyramidBitmap


class PBSRComputer:
    """Builds pyramid bitmap safe regions of a configurable height."""

    def __init__(self, height: int = 5, fan: int = DEFAULT_FAN) -> None:
        if height < 1:
            raise ValueError("height must be at least 1")
        self.height = height
        self.fan = fan

    def compute(self, cell: Rect, obstacles: Sequence[Rect],
                base: Optional[PyramidBitmap] = None) -> PyramidBitmap:
        """Safe-region bitmap of ``cell`` around the pending alarm regions.

        With ``base`` — a bitmap this computer built for ``cell`` over
        other alarms — the result is ``base`` edited by adding
        ``obstacles`` (:meth:`PyramidBitmap.edit`); ``base`` is not
        changed.
        """
        if base is not None:
            return base.edit(obstacles)
        pyramid = Pyramid(cell, fan_cols=self.fan, fan_rows=self.fan,
                          height=self.height)
        return PyramidBitmap.from_obstacles(pyramid, obstacles)
