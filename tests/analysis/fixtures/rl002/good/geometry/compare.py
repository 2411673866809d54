"""RL002 good fixture: tolerant comparison or justified exact zero."""

from repro.geometry import feq, fzero


def is_origin_x(x: float) -> bool:
    return fzero(x)


def same_heading(a: float, b: float) -> bool:
    return feq(a, b)


def count_matches(n: int, expected: int) -> bool:
    return n == expected  # ints: exact equality is correct


def is_point_rect(width: float) -> bool:
    # Exact-zero is intended: degenerate rects carry bit-identical edges.
    return width == 0.0  # lint: allow=RL002
