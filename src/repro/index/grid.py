"""Uniform grid overlay on the Universe of Discourse (paper Section 2.2).

The safe-region framework scopes every computation to the subscriber's
*current grid cell*: only alarms intersecting that cell are considered,
and safe regions never extend past the cell boundary.  The paper sweeps
the cell size from 0.4 to 10 square kilometers (Fig. 4), so the grid is
parameterized by target cell area and snaps to an integer number of
columns and rows over the universe.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..geometry import Point, Rect
from ..values import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class CellId:
    """Discrete grid coordinates of a cell (column, row)."""

    col: int
    row: int


class GridOverlay:
    """A uniform grid partitioning a rectangular universe.

    Cells are half-open on their upper edges internally so that every
    point of the universe maps to exactly one cell, but the *geometric*
    cell returned by :meth:`cell_rect` is the closed rectangle — matching
    how the safe-region algorithms treat the cell as their workspace.
    """

    def __init__(self, universe: Rect, cell_area_km2: float) -> None:
        """Create a grid whose cells are approximately ``cell_area_km2``.

        The requested area is honoured as closely as an integer subdivision
        of the universe allows; the realised area is available as
        :attr:`actual_cell_area_km2`.
        """
        if cell_area_km2 <= 0:
            raise ValueError("cell area must be positive")
        if universe.area == 0:
            raise ValueError("universe must have positive area")
        self.universe = universe
        side_m = math.sqrt(cell_area_km2) * 1000.0
        self.columns = max(1, round(universe.width / side_m))
        self.rows = max(1, round(universe.height / side_m))
        self.cell_width = universe.width / self.columns
        self.cell_height = universe.height / self.rows
        # Cell edges in ratio form ``min + extent * k / n``: the last
        # column/row ends exactly on the universe boundary (points
        # clamped onto the border cell are then geometrically inside it)
        # and adjacent cells share bit-identical boundaries.  Both
        # lookups below read these, so they cannot disagree.
        self._x_edges = [universe.min_x + universe.width * k / self.columns
                         for k in range(self.columns + 1)]
        self._y_edges = [universe.min_y + universe.height * k / self.rows
                         for k in range(self.rows + 1)]
        #: :meth:`cell_rect_of_point`'s rectangles, by ``(col, row)``.
        self._cell_rects: Dict[Tuple[int, int], Rect] = {}

    @property
    def cell_count(self) -> int:
        return self.columns * self.rows

    @property
    def actual_cell_area_km2(self) -> float:
        """Realised cell area in square kilometers."""
        return (self.cell_width * self.cell_height) / 1e6

    def cell_of(self, p: Point) -> CellId:
        """The cell containing ``p``; points outside clamp to the border.

        Clamping keeps vehicles that brush the edge of the universe (a
        road may terminate exactly on the boundary) attached to a valid
        cell rather than raising deep inside the simulation loop.
        """
        # edge(k) <= value < edge(k + 1).  Not ``int((x - min_x) /
        # cell_width)``: that quotient can land an ulp on the other side
        # of the edge ``cell_rect`` reports, and the cell returned would
        # not contain the point.
        col = bisect_right(self._x_edges, p.x) - 1
        row = bisect_right(self._y_edges, p.y) - 1
        return CellId(min(max(col, 0), self.columns - 1),
                      min(max(row, 0), self.rows - 1))

    def cell_rect(self, cell: CellId) -> Rect:
        """Closed geometric rectangle of ``cell``."""
        if not (0 <= cell.col < self.columns and 0 <= cell.row < self.rows):
            raise ValueError("cell %r outside grid" % (cell,))
        return Rect(self._x_edges[cell.col], self._y_edges[cell.row],
                    self._x_edges[cell.col + 1], self._y_edges[cell.row + 1])

    def cell_rect_of_point(self, p: Point) -> Rect:
        """Geometric cell of the cell containing ``p``.

        :meth:`cell_of`'s lookup, then one ``Rect`` per cell, built on
        first use and handed out again: the rectangular safe-region
        policies ask for it on every region-exit report.
        """
        col = min(max(bisect_right(self._x_edges, p.x) - 1, 0),
                  self.columns - 1)
        row = min(max(bisect_right(self._y_edges, p.y) - 1, 0),
                  self.rows - 1)
        rect = self._cell_rects.get((col, row))
        if rect is None:
            rect = self._cell_rects[(col, row)] = self.cell_rect(
                CellId(col, row))
        return rect

    def cells_intersecting(self, rect: Rect) -> Iterator[CellId]:
        """Yield every cell whose closed rectangle intersects ``rect``."""
        clipped = rect.intersection(self.universe)
        if clipped is None:
            return
        lo = self.cell_of(clipped.bottom_left)
        hi = self.cell_of(clipped.top_right)
        for row in range(lo.row, hi.row + 1):
            for col in range(lo.col, hi.col + 1):
                yield CellId(col, row)

    def shape(self) -> Tuple[int, int]:
        """Grid dimensions as ``(columns, rows)``."""
        return (self.columns, self.rows)
