"""Planar geometry substrate: points, rectangles, rectilinear regions."""

from .eps import EPS, feq, feq_exact, fzero, fzero_exact
from .point import ORIGIN, Point, normalize_angle
from .polygon import RectilinearRegion, region_from_rect_minus_holes
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
    "region_from_rect_minus_holes",
]
