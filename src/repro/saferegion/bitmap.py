"""Bitmap-encoded safe regions (paper Section 4).

A bitmap encoded safe region (BSR) represents the safe region of a grid
cell as a hierarchy of bits over a pyramid decomposition: bit 1 means the
cell belongs entirely to the safe region (it intersects no relevant alarm
region), bit 0 means it does not, and — below the pyramid's maximum
height — 0-cells are split into ``U x V`` children that get bits of their
own.

Serialization (the wire format whose length is the paper's *bitmap size*
metric): the root bit first, then the children of every 0-cell in
breadth-first emission order, each child block in raster-scan order (top
row first, left to right).  This reproduces the paper's Fig. 3 numbers
exactly — 82 bits for the 9x9 GBSR of Fig. 3(c), 64 bits for the
height-2 PBSR of Fig. 3(d) — which the test suite asserts.

There is one representation, :class:`PyramidBitmap`, and it *is* that
wire layout: one byte string per level holding the emitted cells of the
level in emission order, i.e. one ``fanout``-cell block per split parent.
The server builds it once per safe-region computation
(:meth:`PyramidBitmap.from_obstacles`), a socket client rebuilds the
same thing from the received bits (:func:`decode_bitstring`), and every
question the protocol asks is answered from the stored levels:

* ``bit_length`` and ``coverage`` are recorded at construction, so
  charging a downlink is an attribute read;
* ``to_bitstring`` concatenates the levels;
* ``probe`` needs only the cells along the path from the root to the
  leaf containing the position — O(h) integer locates and byte lookups
  per position fix, the paper's "predefined worst-case number of
  computations".  The child block of a 0-cell is found by rank: it is
  the *k*-th block of the next level when the cell is the *k*-th split
  cell of its own, and a per-block running count makes that rank one
  short ``bytes.count``.

A cell lying entirely inside one alarm region expands into ``fanout**d``
zero bits at every deeper level ``d``.  Those subtrees are never stored:
the cell is marked :data:`COVERED` and its descendants are accounted in
closed form, so memory and build time stay proportional to the cells
*outside* all-zero subtrees — what makes tall pyramids (Fig. 5 sweeps
heights 1-7) affordable.
"""

from __future__ import annotations

import re
from array import array
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..geometry import Point, Rect
from ..index import Pyramid, PyramidCell
from .base import SafeRegion

#: Stored cell states.  ``SAFE`` and ``SPLIT`` are the wire characters
#: ``'1'`` and ``'0'``; a ``SPLIT`` cell above the leaf level owns one
#: block of the next level.  ``COVERED`` is a 0-cell whose whole subtree
#: is zero bits; it owns no stored block.
SAFE = ord("1")
SPLIT = ord("0")
COVERED = ord("z")

_RUNS = re.compile(rb"z+|[01]+")

_Box = Tuple[float, float, float, float]
#: A cell awaiting its children: (col, row, its four edges, the
#: obstacles over its row of siblings).
_Parent = Tuple[int, int, float, float, float, float, List[_Box]]


class PyramidBitmap:
    """A pyramid bitmap stored as its own serialization, level by level.

    ``levels[L]`` holds the emitted cells of level ``L`` (minus the
    descendants of :data:`COVERED` cells) as one byte per cell, in
    emission order.  Cells that were never emitted because an ancestor
    is safe are part of the safe region by inheritance.
    """

    __slots__ = ("pyramid", "_levels", "_ranks", "_bit_length", "_coverage")

    def __init__(self, pyramid: Pyramid, levels: Sequence[bytes],
                 safe_area: Optional[float] = None) -> None:
        self.pyramid = pyramid
        self._levels = tuple(levels)
        fanout = pyramid.fanout()
        # _ranks[L][b]: SPLIT cells of level L stored before block b.
        self._ranks = tuple(
            array("I", accumulate(
                (cells.count(SPLIT, start, start + fanout)
                 for start in range(0, len(cells) - fanout, fanout)),
                initial=0))
            for cells in self._levels[:-1])
        bits = 0
        covered = 0  # cells of this level inside all-zero subtrees
        nominal = 0.0
        for cells, (cols, rows) in zip(self._levels, pyramid.level_dims):
            bits += len(cells) + covered
            covered = (covered + cells.count(COVERED)) * fanout
            nominal += cells.count(SAFE) / (cols * rows)
        self._bit_length = bits
        # A decoded bitmap has no cell rectangles at hand; equal-size
        # cells per level give its coverage to within float rounding.
        self._coverage = (nominal if safe_area is None
                          else safe_area / pyramid.base.area)

    # ------------------------------------------------------------------
    # Construction from alarm regions
    # ------------------------------------------------------------------
    @classmethod
    def from_obstacles(cls, pyramid: Pyramid,
                       obstacles: Sequence[Rect]) -> "PyramidBitmap":
        """Assign bits over ``pyramid`` for the alarm ``obstacles``.

        A cell is safe (bit 1) iff its interior intersects no obstacle's
        interior — an alarm merely touching a cell edge does not poison
        it, consistent with interior-containment trigger semantics.
        0-cells above the maximum level are split, except that a cell
        inside a single obstacle is closed as :data:`COVERED`.  One
        breadth-first pass; a split cell hands down the obstacles over
        its row of siblings and prunes them to its own width before it
        tests its children, so deep cells see one or two obstacles.
        Cell edges are :meth:`Pyramid.cell_rect`'s: a parent hands its
        own edges down and the ones between its children use the ratio
        form, so children nest exactly and pruning loses nothing.
        """
        base = pyramid.base
        min_x, min_y = base.min_x, base.min_y
        width, depth = base.width, base.height
        levels: List[bytes] = []
        areas: List[float] = []
        # The root is the single "child" of a virtual parent: the base.
        parents: List[_Parent] = [
            (0, 0, min_x, min_y, base.max_x, base.max_y,
             [(o.min_x, o.min_y, o.max_x, o.max_y) for o in obstacles])]
        span_x = span_y = 1
        for level, (cols, rows) in enumerate(pyramid.level_dims):
            leaf = level == pyramid.height
            cells = bytearray()
            split: List[_Parent] = []
            for (parent_col, parent_row, left, bottom, right, top,
                 reaching) in parents:
                col0 = parent_col * span_x
                row0 = parent_row * span_y
                xs = [min_x + width * col / cols
                      for col in range(col0 + 1, col0 + span_x)]
                xs.append(right)
                near = [o for o in reaching if left < o[2] and o[0] < right]
                y1 = top
                for j in range(span_y - 1, -1, -1):  # raster scan: top first
                    y0 = min_y + depth * (row0 + j) / rows if j else bottom
                    band = [o for o in near if y0 < o[3] and o[1] < y1]
                    x0 = left
                    for i, x1 in enumerate(xs):
                        state = SAFE
                        for o in band:
                            if x0 < o[2] and o[0] < x1:
                                if (not leaf and o[0] <= x0 and x1 <= o[2]
                                        and o[1] <= y0 and y1 <= o[3]):
                                    state = COVERED
                                    break
                                state = SPLIT
                        cells.append(state)
                        if state == SAFE:
                            areas.append((x1 - x0) * (y1 - y0))
                        elif state == SPLIT and not leaf:
                            split.append((col0 + i, row0 + j,
                                          x0, y0, x1, y1, band))
                        x0 = x1
                    y1 = y0
            levels.append(bytes(cells))
            parents = split
            span_x, span_y = pyramid.fan_cols, pyramid.fan_rows
        return cls(pyramid, levels, sum(areas))

    # ------------------------------------------------------------------
    # Size and serialization
    # ------------------------------------------------------------------
    def bit_length(self) -> int:
        """Number of bits in the serialized representation."""
        return self._bit_length

    def coverage(self) -> float:
        """The paper's coverage metric ``eta``: safe area / cell area."""
        return self._coverage

    def to_bitstring(self) -> str:
        """The serialized bitmap as a string of '0'/'1' characters."""
        if not any(COVERED in cells for cells in self._levels):
            return b"".join(self._levels).decode("ascii")
        # Re-insert the all-zero subtrees: a run of n covered cells
        # yields n * fanout covered cells at its place in the next level.
        fanout = self.pyramid.fanout()
        out = []
        expanded = self._levels[0]
        for stored in self._levels[1:]:
            out.append(expanded)
            pieces = []
            cursor = 0
            for run in _RUNS.findall(expanded):
                if run[0] == COVERED:
                    pieces.append(run * fanout)
                else:
                    taken = run.count(SPLIT) * fanout
                    pieces.append(stored[cursor:cursor + taken])
                    cursor += taken
            expanded = b"".join(pieces)
        out.append(expanded)
        return b"".join(out).replace(b"z", b"0").decode("ascii")

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------
    def probe(self, p: Point) -> Tuple[bool, int]:
        """:meth:`probe_xy` of a :class:`Point`."""
        return self.probe_xy(p.x, p.y)

    def probe_xy(self, x: float, y: float) -> Tuple[bool, int]:
        """Is ``(x, y)`` inside the safe region?  ``(inside, probes)``.

        Walks from the root toward the leaf containing the position,
        stopping at the first 1 bit (inside) or at an unsplit 0 bit
        (outside).  The probe count is the number of levels examined —
        worst case ``height + 1``.  The cell of the position is located
        independently at every level (:meth:`Pyramid.locate`'s
        arithmetic); within an ulp of a cell edge the located cell need
        not be a child of the previous one, and :meth:`_lookup` then
        resolves it from the root.
        """
        pyramid = self.pyramid
        base = pyramid.base
        min_x = base.min_x
        min_y = base.min_y
        if not (min_x <= x <= base.max_x and min_y <= y <= base.max_y):
            return (False, 1)
        levels = self._levels
        state = levels[0][0]
        if state == SAFE:
            return (True, 1)
        unit_x = (x - min_x) / (base.max_x - min_x)
        unit_y = (y - min_y) / (base.max_y - min_y)
        fan_cols = pyramid.fan_cols
        fan_rows = pyramid.fan_rows
        fanout = fan_cols * fan_rows
        height = pyramid.height
        dims = pyramid.level_dims
        ranks = self._ranks
        parent_col = parent_row = block = 0
        for level in range(1, height + 1):
            cols, rows = dims[level]
            col = int(unit_x * cols)
            if col >= cols:
                col = cols - 1
            row = int(unit_y * rows)
            if row >= rows:
                row = rows - 1
            if col // fan_cols != parent_col or row // fan_rows != parent_row:
                state, block = self._lookup(level, col, row)
            elif state == SPLIT:
                cells = levels[level]
                start = block * fanout
                slot = (start + (fan_rows - 1 - row % fan_rows) * fan_cols
                        + col % fan_cols)
                state = cells[slot]
                if state == SPLIT and level < height:
                    block = ranks[level][block] + cells.count(SPLIT, start,
                                                              slot)
            if state == SAFE:
                return (True, level + 1)
            parent_col = col
            parent_row = row
        return (False, height + 1)

    def _lookup(self, level: int, col: int, row: int) -> Tuple[int, int]:
        """State of an arbitrary cell and, if SPLIT, its child block.

        Descends through the cell's integer ancestors; a cell below a
        safe ancestor reports :data:`SAFE`, one below a covered ancestor
        :data:`COVERED`.
        """
        pyramid = self.pyramid
        fanout = pyramid.fanout()
        state = self._levels[0][0]
        block = 0
        for depth in range(1, level + 1):
            if state != SPLIT:
                break
            cells = self._levels[depth]
            above = level - depth
            start = block * fanout
            slot = start + pyramid.child_slot(PyramidCell(
                depth, col // pyramid.fan_cols ** above,
                row // pyramid.fan_rows ** above))
            state = cells[slot]
            if state == SPLIT and depth < pyramid.height:
                block = self._ranks[depth][block] + cells.count(SPLIT, start,
                                                                slot)
        return (state, block)


def decode_bitstring(pyramid: Pyramid, bitstring: str) -> PyramidBitmap:
    """Reconstruct a :class:`PyramidBitmap` from its serialized form.

    Inverse of :meth:`PyramidBitmap.to_bitstring`: the string is cut
    into its levels (all-zero subtrees stay explicit); raises
    ``ValueError`` when its length does not match the pyramid's split
    schedule.
    """
    if bitstring.strip("01"):
        raise ValueError("bitstring must contain only '0' and '1'")
    data = bitstring.encode("ascii")
    fanout = pyramid.fanout()
    levels: List[bytes] = []
    cursor = 0
    expected = 1
    for _ in range(pyramid.height + 1):
        cells = data[cursor:cursor + expected]
        if len(cells) < expected:
            raise ValueError("bitstring too short for the pyramid")
        levels.append(cells)
        cursor += expected
        expected = cells.count(SPLIT) * fanout
    if cursor != len(data):
        raise ValueError("bitstring longer than the pyramid requires")
    return PyramidBitmap(pyramid, levels)


class BitmapSafeRegion(SafeRegion):
    """A :class:`PyramidBitmap` in the role of a client safe region."""

    __slots__ = ("bitmap",)

    def __init__(self, bitmap: PyramidBitmap) -> None:
        self.bitmap = bitmap

    def probe_xy(self, x: float, y: float) -> Tuple[bool, int]:
        return self.bitmap.probe_xy(x, y)

    def size_bits(self) -> int:
        return self.bitmap.bit_length()

    def area(self) -> float:
        return self.bitmap.coverage() * self.bitmap.pyramid.base.area

    def __repr__(self) -> str:
        return ("BitmapSafeRegion(height=%d, bits=%d)"
                % (self.bitmap.pyramid.height, self.bitmap.bit_length()))
