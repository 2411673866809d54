"""Reference implementations kept as test oracles; nothing at runtime
imports this module.

**Pyramid bitmap** — the cell-by-cell definition.
:func:`build_pyramid_bitmap` assigns one bit to every emitted cell by
testing its :class:`~repro.geometry.Rect` against every obstacle and
stores the result in a dict keyed by :class:`~repro.index.PyramidCell`;
:meth:`EagerBitmap.probe` looks the located cell up level by level.
Nothing about it is fast — an all-zero subtree is enumerated bit by bit
— it is the definition the runtime
:class:`repro.saferegion.PyramidBitmap` is differentially tested
against (``test_bitmap_oracle.py``).

**MWPSR** — the ``Rect``-per-candidate selection.
:class:`ReferenceMWPSRComputer` is the rectangle kernel as it shipped
before the float-only rewrite, bodies verbatim: one validated frozen
``Rect`` per component-rectangle combination, one ``_penetrates_obstacle``
walk and four ``atan2`` + four :func:`reference_cumulative` chains
(``normalize_angle`` → ``_signed_mass`` → ``_half_mass`` → ``bisect``)
per candidate, duplicates and all.  The shipped
:class:`repro.saferegion.MWPSRComputer` must equal it with ``==`` on
``(rect, inside_alarm, quadrant_order, weighted_perimeter)``
(``test_mwpsr_oracle.py``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry import (Point, Rect, RectilinearRegion, fzero,
                            normalize_angle)
from repro.index import Pyramid, PyramidCell
from repro.mobility import (MotionModel, SteadyMotionModel,
                            UniformMotionModel)
from repro.saferegion import MWPSRResult


class EagerBitmap:
    """Bit assignment over a pyramid decomposition of one base cell.

    ``bits`` maps every *emitted* cell (the root plus all children of
    0-cells above the maximum level) to its bit value.  Cells absent from
    the mapping were never emitted because their ancestors are safe
    (bit 1) — their space is part of the safe region by inheritance.
    """

    def __init__(self, pyramid: Pyramid, bits: Dict[PyramidCell, int],
                 emission_order: Sequence[PyramidCell]) -> None:
        self.pyramid = pyramid
        self.bits = bits
        self._emission_order = list(emission_order)

    def bit_length(self) -> int:
        """Number of bits in the serialized representation."""
        return len(self._emission_order)

    def to_bitstring(self) -> str:
        """The serialized bitmap as a string of '0'/'1' characters."""
        return "".join(str(self.bits[cell]) for cell in self._emission_order)

    def probe(self, p: Point) -> Tuple[bool, int]:
        """Is ``p`` inside the safe region?  Returns ``(inside, probes)``.

        Walks from the root toward the leaf containing ``p``, stopping at
        the first 1 bit (inside) or at an unsplit 0 bit (outside).  The
        probe count is the number of levels examined — worst case
        ``height + 1``.
        """
        if not self.pyramid.base.contains_point(p):
            return (False, 1)
        probes = 0
        for level in range(self.pyramid.height + 1):
            probes += 1
            cell = self.pyramid.locate(p, level)
            bit = self.bits.get(cell)
            if bit is None:
                # The cell was never emitted: an ancestor is safe.
                return (True, probes)
            if bit == 1:
                return (True, probes)
        return (False, probes)

    def safe_cells(self) -> List[PyramidCell]:
        """All emitted cells with bit 1 (the safe region's pieces)."""
        return [cell for cell in self._emission_order
                if self.bits[cell] == 1]

    def to_region(self) -> RectilinearRegion:
        """The safe region as a rectilinear polygon.

        1-cells at different levels never overlap (children are emitted
        only under 0-parents), so the pieces are interior-disjoint.
        """
        return RectilinearRegion(self.pyramid.cell_rect(cell)
                                 for cell in self.safe_cells())

    def coverage(self) -> float:
        """The paper's coverage metric ``eta``: safe area / cell area."""
        safe_area = sum(self.pyramid.cell_rect(cell).area
                        for cell in self.safe_cells())
        return safe_area / self.pyramid.base.area


@dataclass(frozen=True)
class BitmapBuildStats:
    """Work counters from one oracle construction."""

    cells_tested: int
    intersection_tests: int


def build_pyramid_bitmap(pyramid: Pyramid, obstacles: Sequence[Rect]
                         ) -> Tuple[EagerBitmap, BitmapBuildStats]:
    """Assign bits over ``pyramid`` for the given alarm ``obstacles``.

    A cell is safe (bit 1) iff its interior intersects no obstacle's
    interior; 0-cells above the maximum level are split.  Interior tests
    mean an alarm merely touching a cell edge does not poison the cell —
    consistent with interior-containment trigger semantics.
    """
    bits: Dict[PyramidCell, int] = {}
    emission_order: List[PyramidCell] = []
    intersection_tests = 0

    queue = deque([PyramidCell(0, 0, 0)])
    while queue:
        cell = queue.popleft()
        rect = pyramid.cell_rect(cell)
        bit = 1
        for obstacle in obstacles:
            intersection_tests += 1
            if rect.interior_intersects(obstacle):
                bit = 0
                break
        bits[cell] = bit
        emission_order.append(cell)
        if bit == 0 and cell.level < pyramid.height:
            queue.extend(pyramid.children(cell))

    return (EagerBitmap(pyramid, bits, emission_order),
            BitmapBuildStats(cells_tested=len(emission_order),
                             intersection_tests=intersection_tests))


# ----------------------------------------------------------------------
# MWPSR reference
# ----------------------------------------------------------------------
TWO_PI = 2.0 * math.pi

# Quadrant sign conventions: local coordinates (u, v) = (sx*(x-ox), sy*(y-oy))
# map each quadrant onto the (+, +) orthant.  Order: I, II, III, IV.
_QUADRANT_SIGNS: Tuple[Tuple[int, int], ...] = ((1, 1), (-1, 1), (-1, -1),
                                                (1, -1))
# World-frame angular sector of each quadrant (CCW [start, end]).
_QUADRANT_SECTORS: Tuple[Tuple[float, float], ...] = (
    (0.0, math.pi / 2.0),
    (math.pi / 2.0, math.pi),
    (-math.pi, -math.pi / 2.0),
    (-math.pi / 2.0, 0.0),
)


def _half_mass(model: SteadyMotionModel, t: float) -> float:
    """Integral of the density over deviations ``[0, t]``, t in [0, pi]."""
    if t <= 0.0:
        return 0.0
    t = min(t, math.pi)
    index = bisect.bisect_right(model._edges, t) - 1
    index = min(max(index, 0), len(model._values) - 1)
    return (model._prefix[index]
            + model._values[index] * (t - model._edges[index]))


def _signed_mass(model: SteadyMotionModel, t: float) -> float:
    """Integral over ``[0, t]`` for t in [-pi, pi] (odd extension)."""
    if t >= 0.0:
        return _half_mass(model, t)
    return -_half_mass(model, -t)


def reference_cumulative(model: MotionModel, phi: float) -> float:
    """``model.cumulative(phi)`` as the four-frame chain it used to be.

    Only the steady model's was rewritten; any other model answers for
    itself.
    """
    if isinstance(model, SteadyMotionModel):
        return 0.5 + _signed_mass(model, normalize_angle(phi))
    return model.cumulative(phi)


class ReferenceMWPSRComputer:
    """:class:`repro.saferegion.MWPSRComputer` before the float rewrite."""

    def __init__(self, model: Optional[MotionModel] = None,
                 exhaustive: bool = False,
                 refine_rounds: int = 2,
                 area_weight: float = 8.0,
                 auto_threshold: int = 256) -> None:
        self.model = model if model is not None else UniformMotionModel()
        self.exhaustive = exhaustive
        self.refine_rounds = refine_rounds
        self.area_weight = area_weight
        self.auto_threshold = auto_threshold

    # ------------------------------------------------------------------
    def compute(self, position: Point, heading: float, cell: Rect,
                obstacles: Sequence[Rect]) -> MWPSRResult:
        """Safe region for a subscriber at ``position`` within ``cell``.

        ``obstacles`` are the regions of the relevant (unfired) alarms
        interior-intersecting the cell.  ``heading`` is the subscriber's
        current direction of travel in world radians.
        """
        if not cell.contains_point(position):
            raise ValueError("subscriber position outside its grid cell")

        containing = [obstacle for obstacle in obstacles
                      if obstacle.interior_contains_point(position)]
        if containing:
            region = cell
            for obstacle in containing:
                clipped = region.intersection(obstacle)
                assert clipped is not None  # all contain the position
                region = clipped
            return MWPSRResult(rect=region, inside_alarm=True)

        if not obstacles:
            return MWPSRResult(rect=cell, inside_alarm=False,
                               weighted_perimeter=self._weighted_perimeter(
                                   cell, position, heading))

        tension_lists = [
            self._quadrant_tension_points(position, cell, obstacles, signs)
            for signs in _QUADRANT_SIGNS
        ]
        combinations = 1
        for tension_list in tension_lists:
            combinations *= len(tension_list)
        if self.exhaustive or combinations <= self.auto_threshold:
            rect, perimeter, order = self._select_exhaustive(
                position, heading, tension_lists, obstacles)
        else:
            rect, perimeter, order = self._select_greedy(
                position, heading, cell, tension_lists, obstacles)

        return MWPSRResult(rect=rect, inside_alarm=False,
                           quadrant_order=order,
                           weighted_perimeter=perimeter)

    # ------------------------------------------------------------------
    # Steps 1-3: candidates, skyline, tension points (per quadrant)
    # ------------------------------------------------------------------
    def _quadrant_tension_points(self, origin: Point, cell: Rect,
                                 obstacles: Iterable[Rect],
                                 signs: Tuple[int, int]
                                 ) -> List[Tuple[float, float]]:
        """Tension points of one quadrant in local ``(u, v)`` coordinates.

        Every returned point ``(u, v)`` spans a component rectangle
        ``[0, u] x [0, v]`` whose interior avoids all obstacles within
        the quadrant, and the list covers all maximal such rectangles.
        """
        sx, sy = signs
        u_max = (cell.max_x - origin.x) if sx > 0 else (origin.x - cell.min_x)
        v_max = (cell.max_y - origin.y) if sy > 0 else (origin.y - cell.min_y)

        candidates: List[Tuple[float, float]] = []
        for obstacle in obstacles:
            if sx > 0:
                u_lo = obstacle.min_x - origin.x
                u_hi = obstacle.max_x - origin.x
            else:
                u_lo = origin.x - obstacle.max_x
                u_hi = origin.x - obstacle.min_x
            if sy > 0:
                v_lo = obstacle.min_y - origin.y
                v_hi = obstacle.max_y - origin.y
            else:
                v_lo = origin.y - obstacle.max_y
                v_hi = origin.y - obstacle.min_y
            # The obstacle constrains this quadrant only when its
            # interior reaches into the open quadrant and binds
            # inside the cell.
            if u_hi <= 0.0 or v_hi <= 0.0:
                continue
            candidate = (max(u_lo, 0.0), max(v_lo, 0.0))
            if candidate[0] >= u_max or candidate[1] >= v_max:
                continue
            candidates.append(candidate)
        skyline = self._skyline(candidates)
        if not skyline:
            return [(u_max, v_max)]

        tension: List[Tuple[float, float]] = []
        tension.append((skyline[0][0], v_max))
        for index in range(1, len(skyline)):
            tension.append((skyline[index][0], skyline[index - 1][1]))
        tension.append((u_max, skyline[-1][1]))
        return tension

    @staticmethod
    def _skyline(candidates: List[Tuple[float, float]]
                 ) -> List[Tuple[float, float]]:
        """Prune fully dominated candidates, keeping the binding staircase.

        A candidate is redundant when another candidate is at most as far
        along *both* axes (the other is the stricter constraint).  The
        result has strictly increasing ``u`` and strictly decreasing
        ``v``.
        """
        ordered = sorted(set(candidates))
        skyline: List[Tuple[float, float]] = []
        best_v = math.inf
        for u, v in ordered:
            if v < best_v:
                skyline.append((u, v))
                best_v = v
        return skyline

    # ------------------------------------------------------------------
    # Step 4: selection
    # ------------------------------------------------------------------
    @staticmethod
    def _penetrates_obstacle(rect: Rect, obstacles: Sequence[Rect],
                             tolerance: float = 1e-9) -> bool:
        """Point-set check: does any point of ``rect`` lie strictly
        inside an obstacle?

        Interior-disjointness (:func:`region_is_safe`) is vacuous for a
        degenerate rectangle, but the client suppresses reporting for
        every point the *closed* rectangle contains — so a zero-width
        sliver threading an alarm's interior (possible when the
        subscriber sits exactly on the alarm's boundary) would silence
        the alarm.  Non-degenerate rectangles whose interiors avoid the
        obstacles can never penetrate, so this only ever rejects
        slivers.
        """
        for obstacle in obstacles:
            if (rect.max_x > obstacle.min_x + tolerance
                    and rect.min_x < obstacle.max_x - tolerance
                    and rect.max_y > obstacle.min_y + tolerance
                    and rect.min_y < obstacle.max_y - tolerance):
                return True
        return False

    def _quadrant_masses(self, heading: float) -> List[float]:
        return [self.model.world_sector_mass(heading, start, end)
                for start, end in _QUADRANT_SECTORS]

    def _select_greedy(self, origin: Point, heading: float, cell: Rect,
                       tension_lists: Sequence[List[Tuple[float, float]]],
                       obstacles: Sequence[Rect]
                       ) -> Tuple[Rect, float, Tuple[int, ...]]:
        """The paper's greedy, hardened with coordinate-descent refinement.

        First pass (the paper's Step 4): quadrants are processed in
        decreasing order of motion-probability mass; in each, the
        component rectangle maximizing the selection score of the running
        intersection is chosen, with the still-unprocessed quadrants
        extending to the cell boundary.

        The first pass commits each quadrant blind to how *later*
        quadrants cap the extents it shares with them, which can strand
        the rectangle at a degenerate choice (e.g. a zero-width sliver
        when an alarm straddles a quadrant axis).  ``refine_rounds``
        passes of coordinate descent fix this: each quadrant's choice is
        re-optimized given the other three commitments, monotonically
        improving the score.  The refined result still uses only the
        paper's component rectangles — it explores the same search space
        as the quartic exhaustive optimum, greedily.
        """
        masses = self._quadrant_masses(heading)
        order = tuple(sorted(range(4), key=lambda q: -masses[q]))
        choices: List[Optional[Tuple[float, float]]] = [None] * 4
        # Refinement revisits many identical extent combinations; one
        # memo per computation caps the cost at distinct rectangles.
        score_memo: dict = {}

        def score_current() -> float:
            rect = self._choices_rect(origin, choices)
            key = (rect.min_x, rect.min_y, rect.max_x, rect.max_y)
            cached = score_memo.get(key)
            if cached is None:
                if self._penetrates_obstacle(rect, obstacles):
                    cached = -math.inf
                else:
                    cached = self._score(rect, origin, heading)
                score_memo[key] = cached
            return cached

        def trial_score(quadrant: int, option: Tuple[float, float]) -> float:
            saved = choices[quadrant]
            choices[quadrant] = option
            score = score_current()
            choices[quadrant] = saved
            return score

        def best_choice(quadrant: int) -> Tuple[float, float]:
            """Best option for one quadrant, others fixed.

            The incumbent choice (when set) wins ties: drifting between
            equal-score options would let the descent wander away from
            states that other quadrants' moves can improve.
            """
            incumbent = choices[quadrant]
            if incumbent is not None:
                best = incumbent
                best_score = score_current()
            else:
                best = tension_lists[quadrant][0]
                best_score = -math.inf
            for option in tension_lists[quadrant]:
                score = trial_score(quadrant, option)
                if score > best_score:
                    best_score = score
                    best = option
            return best

        def best_pair(quad_a: int, quad_b: int) -> bool:
            """Jointly re-optimize two quadrants; True when changed.

            Adjacent quadrants share one extent through a min(), so a
            deadlock where both pin the same extent cannot be escaped by
            single-quadrant moves; the pairwise move can.  Skipped for
            pathologically large option products.
            """
            options_a = tension_lists[quad_a]
            options_b = tension_lists[quad_b]
            if len(options_a) * len(options_b) > 400:
                return False
            saved_a = choices[quad_a]
            saved_b = choices[quad_b]
            best_combo = (saved_a, saved_b)
            best_score = score_current()
            for option_a in options_a:
                choices[quad_a] = option_a
                for option_b in options_b:
                    choices[quad_b] = option_b
                    score = score_current()
                    if score > best_score:
                        best_score = score
                        best_combo = (option_a, option_b)
            choices[quad_a], choices[quad_b] = best_combo
            return best_combo != (saved_a, saved_b)

        for quadrant in order:
            choices[quadrant] = best_choice(quadrant)
        refinement_pairs = ((0, 3), (0, 1), (1, 2), (2, 3), (0, 2), (1, 3))
        for _ in range(self.refine_rounds):
            changed = False
            for quadrant in order:
                refined = best_choice(quadrant)
                if refined != choices[quadrant]:
                    choices[quadrant] = refined
                    changed = True
            if not changed:
                # Single moves have stalled; pairwise moves are what can
                # break a min()-coupled deadlock.  Running them only here
                # keeps the quadratic scans off the common path.
                for quad_a, quad_b in refinement_pairs:
                    if best_pair(quad_a, quad_b):
                        changed = True
            if not changed:
                break

        rect = self._choices_rect(origin, choices)
        if self._penetrates_obstacle(rect, obstacles):
            # Every reachable combination threads an alarm (subscriber
            # pinned on an alarm boundary in a degenerate corner of the
            # cell): fall back to the point region, which forces a
            # report on the next sample instead of silencing the alarm.
            rect = Rect(origin.x, origin.y, origin.x, origin.y)
        return rect, self._weighted_perimeter(rect, origin, heading), order

    def _select_exhaustive(self, origin: Point, heading: float,
                           tension_lists: Sequence[List[Tuple[float, float]]],
                           obstacles: Sequence[Rect]
                           ) -> Tuple[Rect, float, Tuple[int, ...]]:
        """Quartic-time optimum: every component-rectangle combination."""
        best_score = -math.inf
        best_rect: Optional[Rect] = None
        for combo in itertools.product(*tension_lists):
            right = min(combo[0][0], combo[3][0])
            top = min(combo[0][1], combo[1][1])
            left = min(combo[1][0], combo[2][0])
            bottom = min(combo[2][1], combo[3][1])
            rect = self._extents_rect(origin, right, top, left, bottom)
            if self._penetrates_obstacle(rect, obstacles):
                continue
            score = self._score(rect, origin, heading)
            if score > best_score:
                best_score = score
                best_rect = rect
        if best_rect is None:
            # See _select_greedy: all combinations penetrate an alarm.
            best_rect = Rect(origin.x, origin.y, origin.x, origin.y)
        return (best_rect,
                self._weighted_perimeter(best_rect, origin, heading),
                (0, 1, 2, 3))

    def _score(self, rect: Rect, origin: Point, heading: float) -> float:
        """Selection score: weighted perimeter plus area regularization.

        The paper's literal objective — the weighted perimeter alone —
        admits degenerate maximizers: a zero-width sliver spanning the
        cell outscores a fat rectangle of the same half-perimeter but
        holds the subscriber for no time at all.  The published text
        defers the full algorithm to an unavailable technical report, so
        we add the standard regularization: ``area_weight * sqrt(area)``,
        which is perimeter-dimensioned, leaves the ranking of similarly
        fat rectangles to the weighted perimeter, and vetoes slivers.
        Set ``area_weight=0`` for the paper's literal objective.
        """
        score = self._weighted_perimeter(rect, origin, heading)
        if self.area_weight > 0.0:
            score += self.area_weight * math.sqrt(rect.area)
        return score

    @staticmethod
    def _choices_rect(origin: Point,
                      choices: Sequence[Optional[Tuple[float, float]]]
                      ) -> Rect:
        """Intersection rectangle of the committed component choices.

        Each extent is the minimum over its two *committed* contributors;
        an extent neither of whose quadrants has committed yet is zero.
        Crediting uncommitted quadrants with their cell-boundary room
        instead would reward a choice for phantom extents that later
        quadrants then destroy — the refinement rounds grow the rectangle
        back out from this conservative base.
        """
        q1, q2, q3, q4 = choices

        def extent(a: Optional[Tuple[float, float]],
                   b: Optional[Tuple[float, float]], index: int) -> float:
            if a is not None and b is not None:
                return min(a[index], b[index])
            if a is not None:
                return a[index]
            if b is not None:
                return b[index]
            return 0.0

        right = extent(q1, q4, 0)
        top = extent(q1, q2, 1)
        left = extent(q2, q3, 0)
        bottom = extent(q3, q4, 1)
        return Rect(origin.x - left, origin.y - bottom,
                    origin.x + right, origin.y + top)

    @staticmethod
    def _extents_rect(origin: Point, right: float, top: float, left: float,
                      bottom: float) -> Rect:
        return Rect(origin.x - left, origin.y - bottom,
                    origin.x + right, origin.y + top)

    # ------------------------------------------------------------------
    # Weighted perimeter
    # ------------------------------------------------------------------
    def _weighted_perimeter(self, rect: Rect, origin: Point,
                            heading: float) -> float:
        """Perimeter with each side scaled by its relative motion density.

        Each side subtends an angular sector as seen from the subscriber;
        its weight is the motion-probability mass of that sector divided
        by the sector's uniform share, so a uniform model yields exactly
        the geometric perimeter (the paper's non-weighted variant) and a
        steady-motion model up-weights the sides ahead of the subscriber.

        Implementation note: the four sector masses share their corner
        angles, so each corner contributes one cumulative-distribution
        lookup instead of one integration per sector — this is the
        hottest function of the whole simulation.
        """
        if not rect.contains_point(origin):
            # Selection never produces this, but guard the public math.
            raise ValueError("origin must lie within the rectangle")
        dx_max = rect.max_x - origin.x
        dx_min = rect.min_x - origin.x
        dy_max = rect.max_y - origin.y
        dy_min = rect.min_y - origin.y
        angle_br = math.atan2(dy_min, dx_max)
        angle_tr = math.atan2(dy_max, dx_max)
        angle_tl = math.atan2(dy_max, dx_min)
        angle_bl = math.atan2(dy_min, dx_min)
        model = self.model
        cum_br = reference_cumulative(model, angle_br - heading)
        cum_tr = reference_cumulative(model, angle_tr - heading)
        cum_tl = reference_cumulative(model, angle_tl - heading)
        cum_bl = reference_cumulative(model, angle_bl - heading)
        sides = (
            (rect.height, angle_br, angle_tr, cum_br, cum_tr),   # right
            (rect.width, angle_tr, angle_tl, cum_tr, cum_tl),    # top
            (rect.height, angle_tl, angle_bl, cum_tl, cum_bl),   # left
            (rect.width, angle_bl, angle_br, cum_bl, cum_br),    # bottom
        )
        total = 0.0
        for length, start, end, cum_start, cum_end in sides:
            if fzero(length):
                continue
            span = (end - start) % TWO_PI
            if span < 1e-12:
                # Degenerate sector (origin pinned on this side): the
                # mass/span ratio converges to pdf(direction) * 2*pi.
                mid = normalize_angle(start - heading)
                density_ratio = self.model.pdf(mid) * TWO_PI
            else:
                mass = cum_end - cum_start
                if mass < 0.0:
                    mass += 1.0  # the CCW sector wraps through +/- pi
                density_ratio = mass / (span / TWO_PI)
            total += length * density_ratio
        return total
