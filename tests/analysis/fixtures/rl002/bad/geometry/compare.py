"""RL002 bad fixture: exact float equality."""


def is_origin_x(x: float) -> bool:
    return x == 0.0  # RL002: float literal comparison


def same_heading(a: float, b: float) -> bool:
    return a == b  # RL002: both operands annotated float


def not_unit(scale: float) -> bool:
    return scale != 1  # RL002: float name vs numeric literal
