"""Tolerance-aware float comparison helpers.

Geometry code must not compare floats with ``==``/``!=`` (enforced by
lint rule RL002, see ``docs/STATIC_ANALYSIS.md``): coordinates are
reconstructed through chains of additions and ratio splits, so two
values that are *semantically* equal can differ in their last bits.
Every tolerant comparison in the library goes through this module so the
tolerance lives in exactly one place.

``EPS`` is absolute, in meters (the unit of every coordinate in the
system).  The Universe of Discourse is tens of kilometers across, where
float64 has sub-micrometer resolution; one nanometer of slack absorbs
round-off without ever being mistaken for real geometry.

Where *exact* comparison is semantically intended — e.g. the
degenerate-rect check, where a point rectangle is built from
bit-identical coordinates, or the motion models' sector conventions,
where equal endpoints mean an empty sector but an infinitesimally
smaller ``end`` means a full wrap — use :func:`feq_exact` /
:func:`fzero_exact`.  They compile to the same ``==`` but name the
intent, and keeping them here (the one RL002-exempt module) makes them
the only spelling of an exact comparison: an RL002 finding cannot be
suppressed.
"""

from __future__ import annotations

#: Absolute comparison tolerance in meters.
EPS: float = 1e-9


def feq(a: float, b: float, eps: float = EPS) -> bool:
    """True when ``a`` and ``b`` differ by at most ``eps`` (absolute)."""
    return abs(a - b) <= eps


def fzero(value: float, eps: float = EPS) -> bool:
    """True when ``value`` is within ``eps`` of zero."""
    return abs(value) <= eps


def feq_exact(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` are equal bit-for-bit.

    The sanctioned spelling of *intentional* exact float comparison:
    use it only where bit-identity is the semantic contract (values
    copied, never recomputed) and an epsilon would change behaviour —
    the call site should say why in a comment.
    """
    return a == b


def fzero_exact(value: float) -> bool:
    """True when ``value`` is exactly zero (``0.0`` or ``-0.0``).

    See :func:`feq_exact`; exact-zero checks guard degenerate inputs
    constructed from identical coordinates, where a tolerant test
    would misclassify genuinely tiny-but-real geometry.
    """
    return value == 0.0
