"""Planar geometry substrate: points, rectangles, rectilinear regions."""

from .eps import EPS, feq, feq_exact, fzero, fzero_exact
from .point import ORIGIN, Point, normalize_angle
from .polygon import RectilinearRegion
from .rect import Rect

__all__ = [
    "EPS",
    "ORIGIN",
    "Point",
    "Rect",
    "RectilinearRegion",
    "feq",
    "feq_exact",
    "fzero",
    "fzero_exact",
    "normalize_angle",
]
