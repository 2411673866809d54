"""Safe-region computation: MWPSR, GBSR and PBSR (the paper's Sections 3-4)."""

from .base import region_is_safe
from .bitmap import PyramidBitmap, decode_bitstring
from .hu_baseline import HuBaselineComputer
from .mwpsr import MWPSRComputer, MWPSRResult
from .pbsr import PBSRComputer

__all__ = [
    "HuBaselineComputer",
    "MWPSRComputer",
    "MWPSRResult",
    "PBSRComputer",
    "PyramidBitmap",
    "decode_bitstring",
    "region_is_safe",
]
