"""Reference pyramid bitmap: the cell-by-cell definition, kept as test oracle.

:func:`build_pyramid_bitmap` assigns one bit to every emitted cell by
testing its :class:`~repro.geometry.Rect` against every obstacle and
stores the result in a dict keyed by :class:`~repro.index.PyramidCell`;
:meth:`EagerBitmap.probe` looks the located cell up level by level.
Nothing about it is fast — an all-zero subtree is enumerated bit by bit
— and nothing at runtime calls it: it is the definition the runtime
:class:`repro.saferegion.PyramidBitmap` is differentially tested
against (``test_bitmap_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Point, Rect, RectilinearRegion
from repro.index import Pyramid, PyramidCell


class EagerBitmap:
    """Bit assignment over a pyramid decomposition of one base cell.

    ``bits`` maps every *emitted* cell (the root plus all children of
    0-cells above the maximum level) to its bit value.  Cells absent from
    the mapping were never emitted because their ancestors are safe
    (bit 1) — their space is part of the safe region by inheritance.
    """

    def __init__(self, pyramid: Pyramid, bits: Dict[PyramidCell, int],
                 emission_order: Sequence[PyramidCell]) -> None:
        self.pyramid = pyramid
        self.bits = bits
        self._emission_order = list(emission_order)

    def bit_length(self) -> int:
        """Number of bits in the serialized representation."""
        return len(self._emission_order)

    def to_bitstring(self) -> str:
        """The serialized bitmap as a string of '0'/'1' characters."""
        return "".join(str(self.bits[cell]) for cell in self._emission_order)

    def probe(self, p: Point) -> Tuple[bool, int]:
        """Is ``p`` inside the safe region?  Returns ``(inside, probes)``.

        Walks from the root toward the leaf containing ``p``, stopping at
        the first 1 bit (inside) or at an unsplit 0 bit (outside).  The
        probe count is the number of levels examined — worst case
        ``height + 1``.
        """
        if not self.pyramid.base.contains_point(p):
            return (False, 1)
        probes = 0
        for level in range(self.pyramid.height + 1):
            probes += 1
            cell = self.pyramid.locate(p, level)
            bit = self.bits.get(cell)
            if bit is None:
                # The cell was never emitted: an ancestor is safe.
                return (True, probes)
            if bit == 1:
                return (True, probes)
        return (False, probes)

    def safe_cells(self) -> List[PyramidCell]:
        """All emitted cells with bit 1 (the safe region's pieces)."""
        return [cell for cell in self._emission_order
                if self.bits[cell] == 1]

    def to_region(self) -> RectilinearRegion:
        """The safe region as a rectilinear polygon.

        1-cells at different levels never overlap (children are emitted
        only under 0-parents), so the pieces are interior-disjoint.
        """
        return RectilinearRegion(self.pyramid.cell_rect(cell)
                                 for cell in self.safe_cells())

    def coverage(self) -> float:
        """The paper's coverage metric ``eta``: safe area / cell area."""
        safe_area = sum(self.pyramid.cell_rect(cell).area
                        for cell in self.safe_cells())
        return safe_area / self.pyramid.base.area


@dataclass(frozen=True)
class BitmapBuildStats:
    """Work counters from one oracle construction."""

    cells_tested: int
    intersection_tests: int


def build_pyramid_bitmap(pyramid: Pyramid, obstacles: Sequence[Rect]
                         ) -> Tuple[EagerBitmap, BitmapBuildStats]:
    """Assign bits over ``pyramid`` for the given alarm ``obstacles``.

    A cell is safe (bit 1) iff its interior intersects no obstacle's
    interior; 0-cells above the maximum level are split.  Interior tests
    mean an alarm merely touching a cell edge does not poison the cell —
    consistent with interior-containment trigger semantics.
    """
    bits: Dict[PyramidCell, int] = {}
    emission_order: List[PyramidCell] = []
    intersection_tests = 0

    queue = deque([PyramidCell(0, 0, 0)])
    while queue:
        cell = queue.popleft()
        rect = pyramid.cell_rect(cell)
        bit = 1
        for obstacle in obstacles:
            intersection_tests += 1
            if rect.interior_intersects(obstacle):
                bit = 0
                break
        bits[cell] = bit
        emission_order.append(cell)
        if bit == 0 and cell.level < pyramid.height:
            queue.extend(pyramid.children(cell))

    return (EagerBitmap(pyramid, bits, emission_order),
            BitmapBuildStats(cells_tested=len(emission_order),
                             intersection_tests=intersection_tests))
