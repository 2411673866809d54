"""ASCII rendering of cells, alarms and safe regions.

Debugging spatial algorithms without pictures is miserable; this module
renders a grid cell as a character raster — alarms, the subscriber, and
whatever safe region a technique produced — entirely dependency-free.

Legend::

    @   the subscriber
    #   alarm region
    .   safe region (the client may roam here silently)
    +   safe region overlapping an alarm  <- a bug if you ever see it
    (space) inside the cell but outside the safe region

Used by the examples and handy in a REPL::

    >>> print(render_cell(cell, alarms, position, region.rect))
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..geometry import Point, Rect
from ..saferegion.bitmap import PyramidBitmap

SUBSCRIBER = "@"
ALARM = "#"
SAFE = "."
CONFLICT = "+"
EMPTY = " "


def render_cell(cell: Rect, alarms: Sequence[Rect],
                position: Optional[Point] = None,
                safe_region: Union[Rect, PyramidBitmap, None] = None,
                width: int = 60, height: Optional[int] = None) -> str:
    """Render ``cell`` as a ``width x height`` character raster.

    Each character samples the geometry at its center: alarms win over
    empty space, the safe region draws as dots, a safe-region/alarm
    overlap renders as ``+`` (which a correct technique never produces),
    and the subscriber's cell is ``@`` on top of everything.
    """
    if width < 2:
        raise ValueError("width must be at least 2")
    if height is None:
        aspect = cell.height / cell.width
        # terminal cells are ~2x taller than wide; compensate
        height = max(2, round(width * aspect / 2.0))

    def sample_point(col: int, row: int) -> Point:
        return Point(cell.min_x + cell.width * (col + 0.5) / width,
                     cell.min_y + cell.height * (row + 0.5) / height)

    def region_contains(p: Point) -> bool:
        if safe_region is None:
            return False
        if isinstance(safe_region, Rect):
            return safe_region.contains_point(p)
        return safe_region.probe(p)[0]

    rows: List[str] = []
    for row in range(height - 1, -1, -1):  # top row first
        characters: List[str] = []
        for col in range(width):
            p = sample_point(col, row)
            in_alarm = any(a.contains_point(p) for a in alarms)
            in_region = region_contains(p)
            if in_alarm and in_region:
                characters.append(CONFLICT)
            elif in_alarm:
                characters.append(ALARM)
            elif in_region:
                characters.append(SAFE)
            else:
                characters.append(EMPTY)
        rows.append("".join(characters))

    if position is not None and cell.contains_point(position):
        col = min(width - 1,
                  int((position.x - cell.min_x) / cell.width * width))
        row = min(height - 1,
                  int((position.y - cell.min_y) / cell.height * height))
        line_index = height - 1 - row
        line = rows[line_index]
        rows[line_index] = line[:col] + SUBSCRIBER + line[col + 1:]

    border = "+" + "-" * width + "+"
    return "\n".join([border] + ["|%s|" % line for line in rows] + [border])


def render_legend() -> str:
    """The character legend, for printing under a rendering."""
    return ("legend: %s subscriber   %s alarm   %s safe region   "
            "%s overlap (bug!)" % (SUBSCRIBER, ALARM, SAFE, CONFLICT))
