"""Steady-motion direction model (paper Section 3, Fig. 1).

The maximum *weighted* perimeter safe region weights each candidate
rectangle by the probability that the subscriber moves toward it.  The
paper models the deviation ``phi`` of the next movement direction from
the current heading with the density (reconstructed from the printed
formula, whose nested fraction the published scan garbles, and the
stated properties):

    p(phi) = (1 + (y/z) * ceil((pi/2 - |phi|) / (y*pi/z))) / (2*pi)
                                            for |phi| <= pi/2,
    p(phi) = (1 - (y/z) * ceil((|phi| - pi/2) / (y*pi/z))) / (2*pi)
                                            otherwise.

This form reproduces every property the paper states and plots:

* it is a symmetric staircase in ``|phi|`` with steps of width
  ``y*pi/z`` — "z determines the granularity of change in phi for which
  the probability value decreases";
* it is flat for ``0 <= phi <= pi/z`` (at ``y = 1``) — "the probability
  of the client moving in a direction such that 0 <= phi <= pi/z is the
  same";
* ``y/z`` scales the bias toward the current heading — "the value of
  y/z determines the weight assigned to the probability of the client
  moving in the direction of its current motion";
* at ``y = 1`` the peak is ``1.5/(2*pi) ~ 0.239`` and the floor is
  ``0.5/(2*pi) ~ 0.080`` for every ``z`` — exactly the vertical range of
  Fig. 1(b);
* the two branches are antisymmetric images of each other, so the
  density integrates to one with no explicit normalizer.

The density is piecewise constant, so the sector masses the MWPSR
algorithm integrates are computed exactly rather than numerically.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List

from ..geometry import normalize_angle
from ..geometry.eps import feq_exact, fzero_exact

TWO_PI = 2.0 * math.pi


class MotionModel:
    """Interface: a direction-deviation density over ``(-pi, pi]``."""

    def pdf(self, phi: float) -> float:
        """Density at deviation ``phi`` from the current heading."""
        raise NotImplementedError

    def sector_mass(self, start: float, end: float) -> float:
        """Probability that the deviation falls in CCW sector [start, end].

        ``start`` and ``end`` are relative angles (deviations); the
        sector runs counter-clockwise from ``start`` to ``end`` and may
        wrap past pi.  The full circle has mass 1.
        """
        raise NotImplementedError

    def world_sector_mass(self, heading: float, start: float,
                          end: float) -> float:
        """Sector mass for a sector given in *world* angles.

        Converts the world-frame sector ``[start, end]`` (CCW) into
        deviations from ``heading`` and integrates.
        """
        return self.sector_mass(start - heading, end - heading)

    def cumulative(self, phi: float) -> float:
        """CDF over deviations: mass of ``(-pi, phi]``, in [0, 1].

        Sector masses follow from differences of this function (with
        wrap-around handling), which lets hot paths evaluate several
        sectors sharing corner angles with one cumulative lookup per
        corner instead of one integration per sector.
        """
        raise NotImplementedError


class UniformMotionModel(MotionModel):
    """No steady-motion assumption: all directions equally likely.

    This is the paper's *non-weighted* perimeter variant, which improves
    on Hu et al. [10] only through overlap handling; Fig. 4(a) compares
    it against the weighted variants.
    """

    def pdf(self, phi: float) -> float:  # noqa: ARG002 - uniform by design
        return 1.0 / TWO_PI

    def sector_mass(self, start: float, end: float) -> float:
        span = (end - start) % TWO_PI
        # Exact comparison intended: only a bit-exact zero span with
        # distinct endpoints means a full wrap (end - start an exact
        # multiple of 2*pi).  An epsilon test would misread a genuinely
        # tiny sector (span within eps of 0 or 2*pi) as the whole
        # circle, turning a near-zero mass into 1.
        if fzero_exact(span) and not feq_exact(end, start):
            span = TWO_PI
        return span / TWO_PI

    def cumulative(self, phi: float) -> float:
        return (normalize_angle(phi) + math.pi) / TWO_PI


class SteadyMotionModel(MotionModel):
    """The ceiling-staircase density described in the module docstring."""

    def __init__(self, y: float = 1.0, z: int = 32) -> None:
        if z < 1:
            raise ValueError("z must be a positive integer")
        if y <= 0:
            raise ValueError("y must be positive (use UniformMotionModel "
                             "for the non-weighted variant)")
        if y / z >= 1.0:
            raise ValueError("the paper requires y/z < 1")
        self.y = float(y)
        self.z = int(z)
        self._step = self.y * math.pi / self.z

        # Precompute the staircase over |phi| in [0, pi]: breakpoints at
        # pi/2 -+ m*step, clipped; the density is constant between them.
        edges = {0.0, math.pi}
        m = 0
        while True:
            below = math.pi / 2.0 - m * self._step
            above = math.pi / 2.0 + m * self._step
            added = False
            if 0.0 < below < math.pi:
                edges.add(below)
                added = True
            if 0.0 < above < math.pi:
                edges.add(above)
                added = True
            if not added and m > 0:
                break
            m += 1
        self._edges: List[float] = sorted(edges)
        self._values: List[float] = []
        for lo, hi in zip(self._edges, self._edges[1:]):
            mid = (lo + hi) / 2.0
            value = self._raw_pdf(mid)
            if value < 0.0:
                raise ValueError(
                    "density negative for y=%g z=%d; choose y/z smaller"
                    % (self.y, self.z))
            self._values.append(value)
        # Prefix integrals over [0, edge_i] for exact sector masses.
        self._prefix: List[float] = [0.0]
        for (lo, hi), value in zip(zip(self._edges, self._edges[1:]),
                                   self._values):
            self._prefix.append(self._prefix[-1] + value * (hi - lo))

    # ------------------------------------------------------------------
    def _raw_pdf(self, deviation: float) -> float:
        """The paper's two-branch formula for ``deviation`` in [0, pi]."""
        half_pi = math.pi / 2.0
        if deviation <= half_pi:
            steps = math.ceil((half_pi - deviation) / self._step)
            return (1.0 + (self.y / self.z) * steps) / TWO_PI
        steps = math.ceil((deviation - half_pi) / self._step)
        return (1.0 - (self.y / self.z) * steps) / TWO_PI

    def pdf(self, phi: float) -> float:
        deviation = abs(normalize_angle(phi))
        index = bisect.bisect_right(self._edges, deviation) - 1
        index = min(max(index, 0), len(self._values) - 1)
        return self._values[index]

    def total_mass(self) -> float:
        """Integral over the full circle; equals 1 up to float rounding."""
        return 2.0 * self._prefix[-1]

    # ------------------------------------------------------------------
    def _half_mass(self, t: float) -> float:
        """Integral of the density over deviations ``[0, t]``, t in [0, pi]."""
        if t <= 0.0:
            return 0.0
        t = min(t, math.pi)
        index = bisect.bisect_right(self._edges, t) - 1
        index = min(max(index, 0), len(self._values) - 1)
        return (self._prefix[index]
                + self._values[index] * (t - self._edges[index]))

    def _signed_mass(self, t: float) -> float:
        """Integral over ``[0, t]`` for t in [-pi, pi] (odd extension)."""
        if t >= 0.0:
            return self._half_mass(t)
        return -self._half_mass(-t)

    def cumulative(self, phi: float) -> float:
        # ``0.5 + _signed_mass(normalize_angle(phi))`` in one frame, the
        # same arithmetic term by term: the MWPSR scorer calls this once
        # per distinct rectangle corner.
        t = math.fmod(phi, TWO_PI)
        if t > math.pi:
            t -= TWO_PI
        elif t <= -math.pi:
            t += TWO_PI
        negative = t < 0.0
        if negative:
            t = -t
        if t <= 0.0:
            return 0.5
        # 0 < t <= pi here, so the index needs no lower clamp and t no cap.
        values = self._values
        index = bisect.bisect_right(self._edges, t) - 1
        if index >= len(values):
            index = len(values) - 1
        mass = self._prefix[index] + values[index] * (t - self._edges[index])
        return 0.5 - mass if negative else 0.5 + mass

    def sector_mass(self, start: float, end: float) -> float:
        start = normalize_angle(start)
        end = normalize_angle(end)
        if end > start:
            return self._signed_mass(end) - self._signed_mass(start)
        # Exact comparison intended: the CCW sector is empty only when
        # the endpoints coincide bit-for-bit.  ``end`` infinitesimally
        # *below* ``start`` is a full-circle wrap (mass ~1), so an
        # epsilon test here would collapse near-full sectors to zero.
        if feq_exact(end, start):
            return 0.0
        # The CCW sector wraps through +pi/-pi; split at the seam.
        half = self._half_mass(math.pi)
        return (half - self._signed_mass(start)
                + self._signed_mass(end) + half)

    # ------------------------------------------------------------------
    def sample(self, rng: random.Random) -> float:
        """Draw a deviation from the density (inverse CDF on the bands)."""
        draw = rng.random()
        sign = 1.0
        if draw >= 0.5:
            target = draw - 0.5
        else:
            sign = -1.0
            target = 0.5 - draw
        # target is uniform in [0, 0.5) == [0, half-circle mass).
        mass = min(target, self._prefix[-1])
        index = bisect.bisect_right(self._prefix, mass) - 1
        index = min(max(index, 0), len(self._values) - 1)
        value = self._values[index]
        within = (mass - self._prefix[index]) / value if value > 0 else 0.0
        return sign * (self._edges[index] + within)
