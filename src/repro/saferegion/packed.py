"""Numpy kernels of the safe-region package.

* :func:`pack_bitstring` / :func:`unpack_bitstring` / :func:`popcount`
  — a serialized pyramid bitmap as packed uint64 words instead of a
  character string, with bitwise encode/decode and population count.
* :func:`quadrant_skyline` — the MWPSR candidate generation and
  dominance pruning (steps 1-2 of the paper's Section 3 algorithm)
  over an obstacle batch.

Every kernel reproduces its scalar oracle bit for bit (see
``docs/VECTORIZATION.md`` for the contract and the differential tests
that enforce it).  There is no batch bitmap probe: the one runtime
bitmap (:class:`repro.saferegion.bitmap.PyramidBitmap`) probes in a
handful of integer operations, and a vectorised walk over the same
level blocks measured slower end to end (the numbers are in
``docs/VECTORIZATION.md``).  Like :mod:`repro.geometry.batch` this
module requires numpy and is imported explicitly, keeping the scalar
safe-region package importable without it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.typing import NDArray

from ..geometry.batch import RectBatch
from ..geometry.point import Point

WordArray = NDArray[np.uint64]


# ----------------------------------------------------------------------
# Packed words: encode / decode / popcount
# ----------------------------------------------------------------------
def pack_bitstring(bits: str) -> Tuple[WordArray, int]:
    """Pack a ``'0'``/``'1'`` string into little-endian uint64 words.

    Bit ``i`` of the serialization lands in word ``i // 64`` at bit
    position ``i % 64``.  Returns ``(words, bit_length)``; the final
    word is zero-padded.
    """
    flags = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
    if flags.size and bool(((flags != ord("0")) & (flags != ord("1"))).any()):
        raise ValueError("bitstring must contain only '0' and '1'")
    packed = np.packbits(flags - ord("0"), bitorder="little")
    padded = np.zeros(-(-packed.size // 8) * 8, dtype=np.uint8)
    padded[:packed.size] = packed
    return padded.view(np.uint64), len(bits)


def unpack_bitstring(words: WordArray, bit_length: int) -> str:
    """Inverse of :func:`pack_bitstring`."""
    if bit_length > int(words.size) * 64:
        raise ValueError("bit_length exceeds the packed words")
    flags = np.unpackbits(words.view(np.uint8),
                          bitorder="little")[:bit_length]
    return (flags + ord("0")).tobytes().decode("ascii")


def popcount(words: WordArray) -> int:
    """Total number of set bits across the packed words."""
    return int(np.bitwise_count(words).sum())


# ----------------------------------------------------------------------
# MWPSR candidate pruning
# ----------------------------------------------------------------------
def quadrant_skyline(origin: Point, obstacles: RectBatch,
                     signs: Tuple[int, int], u_max: float,
                     v_max: float) -> List[Tuple[float, float]]:
    """Candidate generation + dominance pruning for one MWPSR quadrant.

    The batch form of steps 1-2 of ``MWPSRComputer``: per-obstacle
    local offsets via the sign-dependent subtractions, the same
    binds-in-quadrant filters, then the dominance staircase.  The
    scalar path sorts the deduplicated candidates and keeps strict
    ``v`` decreases; a running ``minimum.accumulate`` implements the
    identical scan (duplicates are harmless — a duplicate's ``v``
    never strictly undercuts its twin).  Returns the skyline as plain
    float tuples, bit-compatible with the scalar lists.
    """
    sx, sy = signs
    if sx > 0:
        u_lo = obstacles.min_xs - origin.x
        u_hi = obstacles.max_xs - origin.x
    else:
        u_lo = origin.x - obstacles.max_xs
        u_hi = origin.x - obstacles.min_xs
    if sy > 0:
        v_lo = obstacles.min_ys - origin.y
        v_hi = obstacles.max_ys - origin.y
    else:
        v_lo = origin.y - obstacles.max_ys
        v_hi = origin.y - obstacles.min_ys
    binds = ~((u_hi <= 0.0) | (v_hi <= 0.0))
    cand_u = np.maximum(u_lo, 0.0)
    cand_v = np.maximum(v_lo, 0.0)
    binds &= ~((cand_u >= u_max) | (cand_v >= v_max))
    cand_u = cand_u[binds]
    cand_v = cand_v[binds]
    if cand_u.size == 0:
        return []
    order = np.lexsort((cand_v, cand_u))
    cand_u = cand_u[order]
    cand_v = cand_v[order]
    keep = np.empty(cand_u.size, dtype=np.bool_)
    keep[0] = True
    if cand_u.size > 1:
        best_v = np.minimum.accumulate(cand_v)
        keep[1:] = cand_v[1:] < best_v[:-1]
    return list(zip(cand_u[keep].tolist(), cand_v[keep].tolist()))
