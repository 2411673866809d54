"""RL001 good fixture: geometry treated as immutable values."""

from repro.geometry import Point, Rect


def shifted(p: Point, dx: float) -> Point:
    return Point(p.x + dx, p.y)  # new instance, no mutation


def widened(rect: Rect, margin: float) -> Rect:
    return rect.expanded(margin)


def unrelated_mutation() -> None:
    class Box:
        pass

    box = Box()
    box.value = 3  # not a geometry type: out of RL001's reach
