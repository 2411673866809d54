"""RL001 bad fixture: mutating geometry instances."""

from repro.geometry import Point, Rect


def shift_in_place(p: Point, dx: float) -> Point:
    p.x = p.x + dx  # RL001: attribute assignment to a Point
    return p


def widen(rect: Rect, margin: float) -> Rect:
    rect.max_x += margin  # RL001: augmented assignment to a Rect
    return rect


def local_construction() -> Point:
    origin = Point(0.0, 0.0)
    origin.y = 1.0  # RL001: mutation of a locally constructed Point
    return origin
