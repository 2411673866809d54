"""Pyramid cell decomposition (Samet's pyramid, paper Section 4.2).

The Pyramid Bitmap Encoded Safe Region (PBSR) splits a base grid cell
recursively: level 0 is the entire cell, level 1 is a U x V subdivision,
level 2 subdivides each level-1 cell into U x V again, and so on up to a
height ``h``.  Only cells that intersect alarm regions (bit 0) are split
further, which is where the representation wins over a flat grid.

This module provides the pure *geometry* of the decomposition — cell
addressing, rectangles, the per-level edge lists and parent/child
navigation.  The bit assignment, the serialization and the probe walk
(which locates a position by bisecting the edge lists) live in
:mod:`repro.saferegion.bitmap`.

Cell addressing: a cell at level ``L`` is identified by ``(col, row)``
with ``0 <= col < U**L`` and ``0 <= row < V**L``.  Raster-scan order —
top row first, left to right, matching Fig. 3 of the paper — is the
canonical enumeration order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

from ..geometry import Rect
from ..values import slot_init

DEFAULT_FAN = 3  # the paper's figures use 3x3 splits


@lru_cache(maxsize=None)
def _level_dims(fan_cols: int, fan_rows: int,
                height: int) -> Tuple[Tuple[int, int], ...]:
    """Grid dimensions per level, shared by every same-shape pyramid."""
    return tuple((fan_cols ** level, fan_rows ** level)
                 for level in range(height + 1))


def _boundary(lo: float, hi: float, k: int, level: int, fan: int) -> float:
    """Boundary ``k`` of the ``fan**level`` equal parts of ``[lo, hi]``.

    Evaluated at the coarsest level the boundary belongs to, so
    boundaries that coincide across levels (24/27 and 8/9) are the same
    float by construction, and the outermost ones are ``lo``/``hi``.
    """
    while level and k % fan == 0:
        k //= fan
        level -= 1
    if level == 0:
        return hi if k else lo
    return lo + (hi - lo) * k / fan ** level


@lru_cache(maxsize=256)
def _level_edges(lo: float, hi: float, fan: int,
                 height: int) -> Tuple[Tuple[float, ...], ...]:
    """The ``fan**level + 1`` cell edges of one axis at each level.

    The one table of :func:`_boundary` values that
    :meth:`Pyramid.cell_rect`, the bitmap builder and the probe walk
    read, shared by every pyramid over the same span (a grid has one
    per column and one per row).
    """
    return tuple(tuple(_boundary(lo, hi, k, level, fan)
                       for k in range(fan ** level + 1))
                 for level in range(height + 1))


@slot_init
@dataclass(frozen=True, slots=True)
class PyramidCell:
    """Address of one cell in the decomposition."""

    level: int
    col: int
    row: int


class Pyramid:
    """Geometry of a U x V recursive decomposition of a base rectangle."""

    def __init__(self, base: Rect, fan_cols: int = DEFAULT_FAN,
                 fan_rows: int = DEFAULT_FAN, height: int = 1) -> None:
        if fan_cols < 2 or fan_rows < 2:
            raise ValueError("split factors must be at least 2")
        if height < 1:
            raise ValueError("height must be at least 1")
        if base.area == 0:
            raise ValueError("base cell must have positive area")
        self.base = base
        self.fan_cols = fan_cols
        self.fan_rows = fan_rows
        self.height = height
        #: ``(columns, rows)`` of the full grid at each level 0..height.
        self.level_dims = _level_dims(fan_cols, fan_rows, height)
        #: ``x_edges[L][k]`` / ``y_edges[L][k]``: vertical / horizontal
        #: cell edge ``k`` of level ``L`` (:func:`_boundary`).
        self.x_edges = _level_edges(base.min_x, base.max_x, fan_cols, height)
        self.y_edges = _level_edges(base.min_y, base.max_y, fan_rows, height)

    # ------------------------------------------------------------------
    def grid_dims(self, level: int) -> Tuple[int, int]:
        """``(columns, rows)`` of the full grid at ``level``."""
        if 0 <= level <= self.height:
            return self.level_dims[level]
        raise ValueError(
            "level %d outside pyramid of height %d" % (level, self.height))

    def cell_rect(self, cell: PyramidCell) -> Rect:
        """Geometric rectangle of ``cell``.

        Edges use the ratio form ``base.min + base.extent * k / n``,
        with coincident boundaries of *different* levels (e.g. 24/27
        and 8/9) reduced to one expression (:func:`_boundary`) — cells
        then tile exactly, children never stick out of their parent and
        the root is the base.  Read from :attr:`x_edges` /
        :attr:`y_edges`, the lists the bitmap builder and the probe
        walk bisect.
        """
        cols, rows = self.grid_dims(cell.level)
        if not (0 <= cell.col < cols and 0 <= cell.row < rows):
            raise ValueError("cell %r outside level grid" % (cell,))
        xs = self.x_edges[cell.level]
        ys = self.y_edges[cell.level]
        return Rect(xs[cell.col], ys[cell.row],
                    xs[cell.col + 1], ys[cell.row + 1])

    def children(self, cell: PyramidCell) -> Iterator[PyramidCell]:
        """Children of ``cell`` at the next level, in raster-scan order.

        Raster-scan means top row of children first — this order defines
        the within-parent bit layout of the pyramid bitmap.
        """
        self.grid_dims(cell.level + 1)  # validates the child level
        base_col = cell.col * self.fan_cols
        base_row = cell.row * self.fan_rows
        for row_offset in range(self.fan_rows - 1, -1, -1):
            for col_offset in range(self.fan_cols):
                yield PyramidCell(cell.level + 1,
                                  base_col + col_offset,
                                  base_row + row_offset)

    def parent(self, cell: PyramidCell) -> PyramidCell:
        """Parent cell one level up; the root cell has no parent."""
        if cell.level == 0:
            raise ValueError("the root cell has no parent")
        return PyramidCell(cell.level - 1,
                           cell.col // self.fan_cols,
                           cell.row // self.fan_rows)

    def level_cells(self, level: int) -> Iterator[PyramidCell]:
        """All cells of ``level`` in raster-scan order."""
        cols, rows = self.grid_dims(level)
        for row in range(rows - 1, -1, -1):
            for col in range(cols):
                yield PyramidCell(level, col, row)

    def fanout(self) -> int:
        """Number of children per cell (``U * V``)."""
        return self.fan_cols * self.fan_rows
