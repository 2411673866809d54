"""The safe-region definition and its invariant check (paper Section 2.1).

A safe region ``Psi_s`` for mobile user ``s`` satisfies:

(i)  while the user's position lies within the safe region, the
     probability of entering any relevant spatial alarm region is zero;
(ii) if the user is inside one or more alarm regions, the intersection
     of those regions is the safe region (no *other* alarm can fire
     there).

Consequently, as long as the client observes itself inside its safe
region, no alarm evaluation — client- or server-side — is necessary.
The client performs a cheap *containment probe* on every position fix;
probes are the unit of the client energy model, and the serialized size
of the region is the unit of the downstream bandwidth model.  A client
holds exactly what the server ships: an MWPSR :class:`~repro.geometry.Rect`
(one closed-rectangle comparison per probe) or a GBSR/PBSR
:class:`~repro.saferegion.PyramidBitmap` (one :meth:`walk` per probe).

Trigger semantics note: alarms fire on *interior* containment ("entering
the spatial region"), so safe regions may legitimately share boundary
with alarm regions.  All safety invariants in this package are stated as
"the safe region's interior is disjoint from every relevant alarm
region's interior".
"""

from __future__ import annotations

from typing import Iterable

from ..geometry import Rect


def region_is_safe(rect: Rect, obstacles: Iterable[Rect],
                   tolerance: float = 1e-9) -> bool:
    """Invariant check: ``rect`` interior avoids every obstacle interior.

    Used by tests and optional runtime validation; the safe-region
    producers must only emit rectangles for which this holds.
    ``tolerance`` (meters) absorbs the floating-point slack of
    reconstructing absolute edges from subscriber-relative extents: an
    overlap is a violation only when it penetrates more than the
    tolerance along *both* axes.
    """
    for obstacle in obstacles:
        dx = (min(rect.max_x, obstacle.max_x)
              - max(rect.min_x, obstacle.min_x))
        if dx <= tolerance:
            continue
        dy = (min(rect.max_y, obstacle.max_y)
              - max(rect.min_y, obstacle.min_y))
        if dy > tolerance:
            return False
    return True
