"""Safe-region computation: MWPSR, GBSR and PBSR (the paper's Sections 3-4)."""

from .base import (FLOAT_BITS, RectangularSafeRegion, SafeRegion,
                   region_is_safe)
from .bitmap import BitmapSafeRegion, PyramidBitmap, decode_bitstring
from .hu_baseline import HuBaselineComputer
from .mwpsr import MWPSRComputer, MWPSRResult
from .pbsr import PBSRComputer

__all__ = [
    "BitmapSafeRegion",
    "FLOAT_BITS",
    "HuBaselineComputer",
    "MWPSRComputer",
    "MWPSRResult",
    "PBSRComputer",
    "PyramidBitmap",
    "RectangularSafeRegion",
    "SafeRegion",
    "decode_bitstring",
    "region_is_safe",
]
