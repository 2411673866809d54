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
(:meth:`PyramidBitmap.from_obstacles`), or edits a built one by adding
obstacles (:meth:`PyramidBitmap.edit`, which copies the blocks they do
not touch), a socket client rebuilds the same thing from the received
bits (:func:`decode_bitstring`), and every question the protocol asks
is answered from the stored levels:

* ``bit_length`` is recorded at construction, so charging a downlink
  is an attribute read; ``coverage`` is summed over the levels when
  first read;
* ``to_bitstring`` concatenates the levels;
* ``probe`` is one walk along the path from the root to the leaf
  containing the position — at most ``h + 1`` levels, each one
  bisection per axis over the children of the cell above and one byte
  lookup, the paper's "predefined worst-case number of computations".
  The child block of a 0-cell is found by rank: it is the *k*-th block
  of the next level when the cell is the *k*-th split cell of its own,
  and a per-block running count makes that rank one short
  ``bytes.count``.  A walk also returns the rectangle of the cell it
  ended in, safe or not (:meth:`PyramidBitmap.walk`), so a client can
  test the next fixes against it and walk again only once it leaves.

A cell lying entirely inside one alarm region expands into ``fanout**d``
zero bits at every deeper level ``d``.  Those subtrees are never stored:
the cell is marked :data:`COVERED` and its descendants are accounted in
closed form, so memory and build time stay proportional to the cells
*outside* all-zero subtrees — what makes tall pyramids (Fig. 5 sweeps
heights 1-7) affordable.

The build never tests a cell against an obstacle.  A cell's state
depends only on which obstacles meet or contain it, and on one level's
grid an axis-aligned obstacle meets a run of rows, each meeting the same
run of columns (the way Ghinita et al. write alert zones as sets of grid
cells).  So each level costs a few bisections per obstacle on the
pyramid's edge lists, which OR the runs into one integer mask per row,
and then one table lookup per emitted block row (top row first, as the
wire wants them).

For the same reason an obstacle added to a built bitmap changes only
the cells it meets and their subtrees: every other block keeps its
bytes, and runs of them are copied level by level as slices.  There is
one emission loop, the edit's; a fresh build is the edit of the all-safe
bitmap, where every parent is met and emitted afresh.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, repeat
from math import inf, nextafter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..geometry import Point, Rect
from ..index import Pyramid

#: Stored cell states.  ``SAFE`` and ``SPLIT`` are the wire characters
#: ``'1'`` and ``'0'``; a ``SPLIT`` cell above the leaf level owns one
#: block of the next level.  ``COVERED`` is a 0-cell whose whole subtree
#: is zero bits; it owns no stored block.
SAFE = ord("1")
SPLIT = ord("0")
COVERED = ord("z")

_RUNS = re.compile(rb"z+|[01]+")

#: The cell a walk stopped at as the positions that walk to it:
#: ``min_x <= x < max_x and min_y <= y < max_y`` (:meth:`PyramidBitmap.walk`).
Block = Tuple[float, float, float, float]

#: One block row: its cell bytes, the offsets of its SPLIT cells and the
#: ``(start, stop)`` offset runs of its SAFE cells.
_Row = Tuple[bytes, Tuple[int, ...], Tuple[Tuple[int, int], ...]]

#: An obstacle as ``(min_x, min_y, max_x, max_y)``.
Box = Tuple[float, float, float, float]


class _RowTable(Dict[Union[int, bytes], _Row]):
    """Every block row of ``width`` cells, keyed by its mask bits or bytes.

    Mask key ``hit | cover << width``: bit ``i`` of ``hit`` says an
    obstacle's interior meets cell ``i``, bit ``i`` of ``cover`` that
    one contains it (what the builder looks up).  A stored row's bytes
    are a key too (what :meth:`PyramidBitmap.coverage` looks up).  A
    row is filled the first time it is looked up.
    """

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, key: Union[int, bytes]) -> _Row:
        width = self.width
        if isinstance(key, bytes):
            cells = key
        else:
            cells = bytes(COVERED if key >> (width + offset) & 1
                          else SPLIT if key >> offset & 1 else SAFE
                          for offset in range(width))
        splits: List[int] = []
        runs: List[Tuple[int, int]] = []
        for offset, state in enumerate(cells):
            if state == SPLIT:
                splits.append(offset)
            elif state == SAFE:
                if runs and runs[-1][1] == offset:
                    runs[-1] = (runs[-1][0], offset + 1)
                else:
                    runs.append((offset, offset + 1))
        row = self[key] = (cells, tuple(splits), tuple(runs))
        return row


@lru_cache(maxsize=None)
def _row_table(width: int) -> _RowTable:
    """The one :class:`_RowTable` of each fan width."""
    return _RowTable(width)


def _or_masks(boxes: Sequence[Box], xs: Sequence[float],
              ys: Sequence[float], cols: int, leaf: bool, hit: List[int],
              cover: List[int], low: int, high: int) -> None:
    """OR one level's row masks of ``boxes`` into ``hit`` and ``cover``.

    On the level's edge lists an obstacle meets a run of columns over a
    run of rows and (above the leaf level) contains a possibly empty
    sub-run of each, all found by bisection.  Only rows ``low`` to
    ``high - 1`` are written; the rows a box contains are among those
    it meets.
    """
    for min_x, min_y, max_x, max_y in boxes:
        first = bisect_right(ys, min_y, low + 1) - 1
        stop = bisect_left(ys, max_y, low, high)
        if first >= stop:
            continue
        # columns c with xs[c] < max_x and min_x < xs[c + 1]; none
        # (c0 == c1 + 1) for a zero-width obstacle on an edge
        c0 = bisect_right(xs, min_x, 1) - 1
        c1 = bisect_left(xs, max_x, 0, cols) - 1
        bits = (2 << c1) - (1 << c0)
        for row in range(first, stop):
            hit[row] |= bits
        if not leaf:
            # columns with min_x <= xs[c] and xs[c + 1] <= max_x
            c0 = bisect_left(xs, min_x)
            c1 = bisect_right(xs, max_x) - 2
            if c0 <= c1:
                bits = (2 << c1) - (1 << c0)
                for row in range(bisect_left(ys, min_y, low, high),
                                 bisect_right(ys, max_y, low, high + 1) - 1):
                    cover[row] |= bits


class PyramidBitmap:
    """A pyramid bitmap stored as its own serialization, level by level.

    ``levels[L]`` holds the emitted cells of level ``L`` (minus the
    descendants of :data:`COVERED` cells) as one byte per cell, in
    emission order.  Cells that were never emitted because an ancestor
    is safe are part of the safe region by inheritance.  ``obstacles``
    are the ones the levels were built over (those meeting the base's
    interior), kept by reference; a decoded bitmap has none to give
    (``None``) and cannot be edited.
    """

    __slots__ = ("pyramid", "_levels", "_ranks", "_bit_length", "_coverage",
                 "_obstacles")

    def __init__(self, pyramid: Pyramid, levels: Sequence[bytes],
                 obstacles: Optional[Tuple[Rect, ...]] = None) -> None:
        self.pyramid = pyramid
        self._levels = tuple(levels)
        self._obstacles = obstacles
        fanout = pyramid.fanout()
        # _ranks[L][b]: SPLIT cells of level L stored before block b, for
        # b up to the level's block count (its last entry is the total).
        self._ranks = tuple(
            array("I", accumulate(
                map(cells.count, repeat(SPLIT),
                    range(0, len(cells), fanout),
                    range(fanout, len(cells) + fanout, fanout)),
                initial=0))
            for cells in self._levels[:-1])
        bits = 0
        covered = 0  # cells of this level inside all-zero subtrees
        for cells in self._levels:
            bits += len(cells) + covered
            covered = (covered + cells.count(COVERED)) * fanout
        self._bit_length = bits
        self._coverage: Optional[float] = None

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
        inside a single obstacle is closed as :data:`COVERED`.

        The all-safe bitmap of ``pyramid`` edited by adding every
        obstacle (:meth:`edit`): every parent is then emitted afresh.
        """
        empty = cls(pyramid, [bytes((SAFE,))] + [b""] * pyramid.height, ())
        return empty.edit(obstacles)

    def edit(self, obstacles: Sequence[Rect]) -> "PyramidBitmap":
        """This bitmap with the alarm ``obstacles`` added to its own.

        Equals :meth:`from_obstacles` over both sets byte for byte; this
        bitmap is not changed.  A cell whose interior no added obstacle
        meets keeps its state and its whole subtree, so the edit walks
        the levels in emission order with one list of items per level:

        * a *copy run* ``(k0, None, k1)`` of untouched blocks of this
          bitmap's level, appended as one slice, which becomes the run
          ``(ranks[k0], None, ranks[k1])`` of their children's blocks one
          level down;
        * a *fresh parent* ``(col, row, block)`` — a split cell whose
          interior an added obstacle meets, and its own block in this
          bitmap or ``-1`` — whose children are emitted from row masks
          against every obstacle.  Each split child is fresh again if an
          added obstacle meets it, else a one-block copy run located by
          rank.

        Row masks: on a level's edge lists (:attr:`Pyramid.x_edges` /
        :attr:`Pyramid.y_edges`, the ones :meth:`Pyramid.cell_rect`
        reads, so the ranges are exact on any edge) :func:`_or_masks`
        ORs each obstacle's runs into one *hit* and one *cover* ``int``
        per row, and each block row of a fresh parent is one lookup of
        its mask bits in :func:`_row_table`; the added obstacles' own
        hit masks say which children are fresh.
        """
        carved = self._obstacles
        if carved is None:
            raise ValueError("a decoded bitmap cannot be edited: it does "
                             "not know the obstacles it was built over")
        pyramid = self.pyramid
        base = pyramid.base
        left, bottom, right, top = (base.min_x, base.min_y,
                                    base.max_x, base.max_y)
        height = pyramid.height
        # Obstacles that miss the root's interior are dropped here, so
        # every bisection below lands inside the grid.
        kept: List[Rect] = []
        added: List[Box] = []
        root = self._levels[0][0]
        for obstacle in obstacles:
            min_x, min_y = obstacle.min_x, obstacle.min_y
            max_x, max_y = obstacle.max_x, obstacle.max_y
            if left < max_x and min_x < right and bottom < max_y \
                    and min_y < top:
                kept.append(obstacle)
                added.append((min_x, min_y, max_x, max_y))
                if min_x <= left and right <= max_x and min_y <= bottom \
                        and top <= max_y:
                    root = COVERED
        if root == SAFE and added:
            root = SPLIT
        levels = [bytes((root,))]
        base_levels = self._levels
        base_ranks = self._ranks
        fan_cols, fan_rows = pyramid.fan_cols, pyramid.fan_rows
        fanout = fan_cols * fan_rows
        fan_mask = (1 << fan_cols) - 1
        table = _row_table(fan_cols)
        boxes = [(obstacle.min_x, obstacle.min_y, obstacle.max_x,
                  obstacle.max_y) for obstacle in carved]
        # A fresh parent is (col, row, block); a copy run has no row:
        # (k0, None, k1).
        items: List[Tuple[int, Optional[int], int]] = []
        if root == SPLIT and added:
            items.append((0, 0, 0 if base_levels[0][0] == SPLIT else -1))
        elif root == SPLIT:
            items.append((0, None, 1))
        below: List[Tuple[int, Optional[int], int]] = []

        def copy(k0: int, k1: int) -> None:
            """Append the copy run ``[k0, k1)``, joined to one it ends."""
            if below and below[-1][1] is None and below[-1][2] == k0:
                k0 = below.pop()[0]
            below.append((k0, None, k1))

        for level in range(1, height + 1):
            if not items:
                break
            cols, rows = pyramid.level_dims[level]
            xs = pyramid.x_edges[level]
            ys = pyramid.y_edges[level]
            leaf = level == height
            base_cells = base_levels[level]
            fresh_rows = [row for _, row, _ in items if row is not None]
            if fresh_rows:
                # Only the rows of the fresh parents' blocks are read:
                # the cells an added obstacle meets, then every obstacle.
                low = min(fresh_rows) * fan_rows
                high = (max(fresh_rows) + 1) * fan_rows
                touched = [0] * rows
                cover = [0] * rows
                _or_masks(added, xs, ys, cols, leaf, touched, cover, low, high)
                hit = touched.copy()
                _or_masks(boxes, xs, ys, cols, leaf, hit, cover, low, high)
            cells = bytearray()
            below = []
            for first, parent_row, last in items:
                if parent_row is None:
                    cells += base_cells[first * fanout:last * fanout]
                    if leaf:
                        continue
                    ranks = base_ranks[level]
                    if ranks[first] < ranks[last]:
                        copy(ranks[first], ranks[last])
                    continue
                col0 = first * fan_cols
                row0 = parent_row * fan_rows
                start = slot = last * fanout  # the parent's block here
                # raster scan: top row first
                for row in range(row0 + fan_rows - 1, row0 - 1, -1):
                    if leaf:
                        cells += table[hit[row] >> col0 & fan_mask][0]
                        continue
                    chunk, splits, _ = table[
                        (hit[row] >> col0 & fan_mask)
                        | (cover[row] >> col0 & fan_mask) << fan_cols]
                    cells += chunk
                    for offset in splits:
                        col = col0 + offset
                        child = -1  # the child's block here, if it has one
                        if last >= 0 and base_cells[slot + offset] == SPLIT:
                            child = base_ranks[level][last] + \
                                base_cells.count(SPLIT, start, slot + offset)
                        if touched[row] >> col & 1:
                            below.append((col, row, child))
                        else:  # untouched: that block, copied whole
                            copy(child, child + 1)
                    slot += fan_cols
            levels.append(bytes(cells))
            items = below
        levels += [b""] * (height + 1 - len(levels))
        return PyramidBitmap(pyramid, levels, carved + tuple(kept))

    # ------------------------------------------------------------------
    # Size and serialization
    # ------------------------------------------------------------------
    def bit_length(self) -> int:
        """Number of bits in the serialized representation."""
        return self._bit_length

    def coverage(self) -> float:
        """The paper's coverage metric ``eta``: safe area / cell area.

        Summed on the first call by one walk of the stored levels: per
        split parent in emission order, per block row top first, each
        run of SAFE cells as ``width * height`` — the same expressions
        in the same order whether the levels were built, edited or
        decoded, so equal levels give equal floats.
        """
        coverage = self._coverage
        if coverage is None:
            coverage = self._coverage = (self._safe_area()
                                         / self.pyramid.base.area)
        return coverage

    def _safe_area(self) -> float:
        pyramid = self.pyramid
        levels = self._levels
        if levels[0][0] == SAFE:
            return pyramid.base.area
        fan_cols, fan_rows = pyramid.fan_cols, pyramid.fan_rows
        table = _row_table(fan_cols)
        height = pyramid.height
        area = 0.0
        parents = [(0, 0)] if levels[0][0] == SPLIT else []
        for level in range(1, height + 1):
            if not parents:
                break
            cells = levels[level]
            x_edges = pyramid.x_edges[level]
            y_edges = pyramid.y_edges[level]
            split: List[Tuple[int, int]] = []
            start = 0
            for parent_col, parent_row in parents:
                col0 = parent_col * fan_cols
                row0 = parent_row * fan_rows
                # raster scan: top row first
                for row in range(row0 + fan_rows - 1, row0 - 1, -1):
                    _, splits, runs = table[cells[start:start + fan_cols]]
                    start += fan_cols
                    if runs:
                        dy = y_edges[row + 1] - y_edges[row]
                        for first, stop in runs:
                            area += (x_edges[col0 + stop]
                                     - x_edges[col0 + first]) * dy
                    if level < height:
                        split += [(col0 + offset, row) for offset in splits]
            parents = split
        return area

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
        """Is ``p`` inside the safe region?  ``(inside, probes)``.

        The first two fields of :meth:`walk`.
        """
        return self.walk(p.x, p.y)[:2]

    def walk(self, x: float, y: float
             ) -> Tuple[bool, int, Optional[Block]]:
        """The probe walk: ``(inside, probes, block)`` of ``(x, y)``.

        Walks from the root toward the leaf containing the position,
        stopping at the first 1 bit (inside) or at an unsplit 0 bit
        (outside).  The probe count is the number of levels examined —
        worst case ``height + 1``; a covered cell counts its all-zero
        subtree down to the leaf level.

        At each level the cell is found by bisecting the level's edge
        lists (:attr:`Pyramid.x_edges` / :attr:`Pyramid.y_edges`, the
        ones :meth:`Pyramid.cell_rect` and the builder read) over the
        children of the cell found one level up, so it is the cell whose
        half-open rectangle holds the position — closed on the base's
        top and right edges — and always a child of its predecessor.

        ``block`` is the cell the walk stopped at — a safe cell, a
        covered cell of any level (the base itself when the root is
        covered) or an unsafe leaf — as ``(min_x, min_y, max_x, max_y)``
        with ``min <= coordinate < max`` on both axes exactly the
        positions this walk sends to that cell (``max`` is one ulp above
        the base edge in its last column or row).  Every position in it
        walks to the same ``(inside, probes)``: ``(True, level + 1)`` for
        a safe cell, ``(False, height + 1)`` otherwise.  Outside the base
        the walk is ``(False, 1, None)``.
        """
        pyramid = self.pyramid
        base = pyramid.base
        if not (base.min_x <= x <= base.max_x
                and base.min_y <= y <= base.max_y):
            return (False, 1, None)
        x_edges = pyramid.x_edges
        y_edges = pyramid.y_edges
        levels = self._levels
        height = pyramid.height
        state = levels[0][0]
        xs = x_edges[0]
        ys = y_edges[0]
        fan_cols = pyramid.fan_cols
        fan_rows = pyramid.fan_rows
        fanout = fan_cols * fan_rows
        ranks = self._ranks
        col = row = block = level = 0
        while state == SPLIT and level < height:
            level += 1
            xs = x_edges[level]
            ys = y_edges[level]
            col0 = col * fan_cols
            row0 = row * fan_rows
            col = bisect_right(xs, x, col0 + 1, col0 + fan_cols) - 1
            row = bisect_right(ys, y, row0 + 1, row0 + fan_rows) - 1
            cells = levels[level]
            start = block * fanout
            # raster scan within the block: top row first
            slot = start + (row0 + fan_rows - 1 - row) * fan_cols + col - col0
            state = cells[slot]
            if state == SPLIT and level < height:
                block = ranks[level][block] + cells.count(SPLIT, start, slot)
        # stopped at a safe cell, a covered one or an unsafe leaf
        stopped = _block(xs, ys, col, row)
        if state == SAFE:
            return (True, level + 1, stopped)
        return (False, height + 1, stopped)  # zero bits down to the leaves


def _block(xs: Sequence[float], ys: Sequence[float], col: int,
           row: int) -> Block:
    """Cell ``(col, row)`` of one level's edges as a half-open block."""
    max_x = xs[col + 1]
    if col + 2 == len(xs):
        max_x = nextafter(max_x, inf)
    max_y = ys[row + 1]
    if row + 2 == len(ys):
        max_y = nextafter(max_y, inf)
    return (xs[col], ys[row], max_x, max_y)


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
