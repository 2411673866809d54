"""Maximum Weighted Perimeter Rectangular Safe Region (paper Section 3).

Given a subscriber position inside its current grid cell and the alarm
regions intersecting that cell, compute a rectangle that

* contains the subscriber,
* stays within the grid cell,
* has an interior disjoint from every alarm region's interior, and
* (heuristically) maximizes the *weighted perimeter*, where each side is
  weighted by the steady-motion probability of the subscriber moving
  toward it.

The algorithm follows the paper's four steps built on dynamic skylines:

1. **Candidate points** — partition the cell into four quadrants around
   the subscriber; in each quadrant, the corner of every intersecting
   alarm region nearest the origin (clamped to the quadrant) is a
   candidate constraint; fully dominated candidates are pruned.
2. **Tension points** — the maximal "staircase steps" implied by the
   candidate skyline; each pairs a candidate's offset along one axis with
   the previous candidate's offset along the other.
3. **Component rectangles** — each tension point spans a maximal
   rectangle for its quadrant.
4. **Greedy selection** — quadrants are processed in decreasing order of
   motion-probability mass; in each, the component rectangle maximizing
   the weighted perimeter of the running intersection is chosen.

Handled explicitly (the two failure modes of Hu et al. [10] that the
paper calls out): *overlapping* alarm regions — candidates from each
region are independent constraints, overlap is harmless — and alarm
regions *intersecting the quadrant axes* — the clamped candidate lands on
the axis and correctly caps the perpendicular extent.

When the subscriber is strictly inside one or more alarm regions, the
safe region is the intersection of those regions clipped to the cell
(definition (ii) in Section 2.1); within it no *other* alarm can fire.

An exhaustive optimizer (``exhaustive=True``) enumerates every
combination of component rectangles — the quartic-time optimum the paper
contrasts with its greedy — and is used by the ablation benchmark.

Selection works on plain floats and pays per computation, not per
call: each obstacle is unpacked, shrunk and clamped once, in one loop;
a quadrant's skyline and staircase are one pass over its sorted
candidates (no sort for one candidate); a candidate is four edges;
every distinct candidate is scored once unless its bound (the model's
``peak_ratio`` times its geometric perimeter, plus its area term)
cannot beat the incumbent; every distinct corner's ``(angle,
cumulative)`` is looked up once; the four sides of a scored rectangle
are written out, not looped over; and a :class:`Rect` is built for the
winner only.  The ``Rect``-per-candidate definition this is held to,
``==`` on every output, lives in ``tests/saferegion/oracle.py``
(``ReferenceMWPSRComputer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import EPS, Point, Rect, normalize_angle
from ..mobility.motion import MotionModel, UniformMotionModel
from ..values import slot_init

TWO_PI = 2.0 * math.pi

# World-frame angular sector of each quadrant (CCW [start, end]).
# Order: I, II, III, IV.
_QUADRANT_SECTORS: Tuple[Tuple[float, float], ...] = (
    (0.0, math.pi / 2.0),
    (math.pi / 2.0, math.pi),
    (-math.pi, -math.pi / 2.0),
    (-math.pi / 2.0, 0.0),
)

#: Relative widening of the enumeration's score bound.  The bound is
#: tight (a steady model's side weight reaches ``peak_ratio`` exactly),
#: and the scored perimeter is a float sum of per-side mass/span ratios
#: that can round a few ulps past it (the uniform model's reads up to
#: 7e-16 relative past it on adversarial layouts): a bound that rounded
#: below a score would skip a winner.
_BOUND_MARGIN = 1e-9

#: How far :func:`_shrink` pulls an obstacle's box in.
_TOLERANCE = 1e-9

#: ``(min_x, min_y, max_x, max_y)`` of a candidate or an obstacle.
Edges = Tuple[float, float, float, float]
#: A tension point: the ``(u, v)`` extents of one component rectangle.
Extent = Tuple[float, float]
#: ``(angle, cumulative)`` of every corner scored so far in one
#: computation, keyed by the corner's ``(x, y)``.
CornerMemo = Dict[Tuple[float, float], Tuple[float, float]]


def _shrink(min_x: float, min_y: float, max_x: float, max_y: float,
            tolerance: float = _TOLERANCE) -> Edges:
    """An obstacle's box pulled in by ``tolerance`` (:func:`_penetrates`)."""
    return (min_x + tolerance, min_y + tolerance,
            max_x - tolerance, max_y - tolerance)


def _penetrates(min_x: float, min_y: float, max_x: float, max_y: float,
                shrunk: Sequence[Edges]) -> bool:
    """Point-set check: does any point of the closed candidate lie
    strictly (beyond the tolerance) inside an obstacle?

    Interior-disjointness (:func:`region_is_safe`) is vacuous for a
    degenerate rectangle, but the client suppresses reporting for
    every point the *closed* rectangle contains — so a zero-width
    sliver threading an alarm's interior (possible when the
    subscriber sits exactly on the alarm's boundary) would silence
    the alarm.  Non-degenerate rectangles whose interiors avoid the
    obstacles can never penetrate, so this only ever rejects
    slivers.
    """
    for box_min_x, box_min_y, box_max_x, box_max_y in shrunk:
        if (max_x > box_min_x and min_x < box_max_x
                and max_y > box_min_y and min_y < box_max_y):
            return True
    return False


def _perimeter(model: MotionModel, min_x: float, min_y: float, max_x: float,
               max_y: float, ox: float, oy: float, heading: float,
               corners: CornerMemo) -> float:
    """Perimeter with each side scaled by its relative motion density.

    Each side subtends an angular sector as seen from the subscriber
    at ``(ox, oy)``, which must lie within the edges; its weight is
    the motion-probability mass of that sector divided by the
    sector's uniform share, so a uniform model yields exactly the
    geometric perimeter (the paper's non-weighted variant) and a
    steady-motion model up-weights the sides ahead of the subscriber.

    The four sector masses share their corner angles, so each corner
    contributes one cumulative-distribution lookup instead of one
    integration per sector, and ``corners`` carries those lookups
    from one candidate of a computation to the next: candidates are
    combinations of a few extents per side, so corners recur.
    ``(ox, oy)`` and ``heading`` are fixed for the life of a memo.

    The sides are written out in the order right, top, left, bottom,
    which is the order of the float sum.  A side no longer than ``EPS``
    weighs nothing.  A side whose sector is degenerate is weighed by
    :func:`_pinned_ratio`: the subscriber on the left end of the top or
    bottom side, or a side just over ``EPS`` long seen from across a
    cell wide enough that it subtends less than 1e-12 rad.
    """
    cumulative = model.cumulative
    key = (max_x, min_y)
    corner = corners.get(key)
    if corner is None:
        angle = math.atan2(min_y - oy, max_x - ox)
        corner = corners[key] = (angle, cumulative(angle - heading))
    angle_br, cum_br = corner
    key = (max_x, max_y)
    corner = corners.get(key)
    if corner is None:
        angle = math.atan2(max_y - oy, max_x - ox)
        corner = corners[key] = (angle, cumulative(angle - heading))
    angle_tr, cum_tr = corner
    key = (min_x, max_y)
    corner = corners.get(key)
    if corner is None:
        angle = math.atan2(max_y - oy, min_x - ox)
        corner = corners[key] = (angle, cumulative(angle - heading))
    angle_tl, cum_tl = corner
    key = (min_x, min_y)
    corner = corners.get(key)
    if corner is None:
        angle = math.atan2(min_y - oy, min_x - ox)
        corner = corners[key] = (angle, cumulative(angle - heading))
    angle_bl, cum_bl = corner
    height = max_y - min_y
    width = max_x - min_x
    # The four sides written out in the order right, top, left, bottom,
    # each from its CCW start corner to its end corner.  Lengths are
    # non-negative, so ``length > EPS`` is ``not fzero(length)``.
    total = 0.0
    if height > EPS:  # right
        span = (angle_tr - angle_br) % TWO_PI
        if span < 1e-12:
            total += height * _pinned_ratio(model, angle_br, heading)
        else:
            mass = cum_tr - cum_br
            if mass < 0.0:
                mass += 1.0  # the CCW sector wraps through +/- pi
            total += height * (mass / (span / TWO_PI))
    if width > EPS:  # top
        span = (angle_tl - angle_tr) % TWO_PI
        if span < 1e-12:
            total += width * _pinned_ratio(model, angle_tr, heading)
        else:
            mass = cum_tl - cum_tr
            if mass < 0.0:
                mass += 1.0  # the CCW sector wraps through +/- pi
            total += width * (mass / (span / TWO_PI))
    if height > EPS:  # left
        span = (angle_bl - angle_tl) % TWO_PI
        if span < 1e-12:
            total += height * _pinned_ratio(model, angle_tl, heading)
        else:
            mass = cum_bl - cum_tl
            if mass < 0.0:
                mass += 1.0  # the CCW sector wraps through +/- pi
            total += height * (mass / (span / TWO_PI))
    if width > EPS:  # bottom
        span = (angle_br - angle_bl) % TWO_PI
        if span < 1e-12:
            total += width * _pinned_ratio(model, angle_bl, heading)
        else:
            mass = cum_br - cum_bl
            if mass < 0.0:
                mass += 1.0  # the CCW sector wraps through +/- pi
            total += width * (mass / (span / TWO_PI))
    return total


def _pinned_ratio(model: MotionModel, start: float, heading: float) -> float:
    """Weight of a degenerate sector (the origin pinned on its side).

    The mass/span ratio converges to ``pdf(direction) * 2*pi``.
    """
    return model.pdf(normalize_angle(start - heading)) * TWO_PI


@slot_init
@dataclass(frozen=True, slots=True)
class MWPSRResult:
    """Outcome of a safe-region computation."""

    rect: Rect
    inside_alarm: bool          # definition (ii) applied
    quadrant_order: Tuple[int, ...] = ()
    weighted_perimeter: float = 0.0


class MWPSRComputer:
    """Computes maximum weighted perimeter rectangular safe regions.

    ``model`` weights the perimeter; pass :class:`UniformMotionModel`
    for the paper's *non-weighted* variant.  ``exhaustive=True`` replaces
    the greedy quadrant processing with full enumeration of component-
    rectangle combinations (the quartic optimum).
    """

    def __init__(self, model: Optional[MotionModel] = None,
                 exhaustive: bool = False,
                 refine_rounds: int = 2,
                 area_weight: float = 8.0,
                 auto_threshold: int = 256) -> None:
        """Configure the computer.

        ``exhaustive=True`` forces full enumeration regardless of size.
        Otherwise the selection is adaptive: cells whose component-
        rectangle combination count is at most ``auto_threshold`` are
        solved exactly (at typical per-cell alarm counts the quartic
        enumeration is small *and* cheaper than iterated greedy
        refinement); denser cells — the case the paper's greedy exists
        for — fall back to the greedy with ``refine_rounds`` rounds of
        coordinate descent.  ``auto_threshold=0`` forces the greedy.
        """
        if refine_rounds < 0:
            raise ValueError("refine_rounds must be non-negative")
        if area_weight < 0:
            raise ValueError("area_weight must be non-negative")
        if auto_threshold < 0:
            raise ValueError("auto_threshold must be non-negative")
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
        if not obstacles:
            return MWPSRResult(rect=cell, inside_alarm=False,
                               weighted_perimeter=self._weighted_perimeter(
                                   cell, position, heading))

        # Steps 1-3 for all four quadrants in one pass: each obstacle is
        # unpacked once, and clamped once per *direction* — a quadrant's
        # candidate is one horizontal and one vertical clamp, and the
        # obstacle constrains the quadrant only when its interior
        # reaches into it and binds inside the cell.
        ox = position.x
        oy = position.y
        east_max = cell.max_x - ox
        north_max = cell.max_y - oy
        west_max = ox - cell.min_x
        south_max = oy - cell.min_y
        containing: List[Rect] = []
        shrunk: List[Edges] = []
        candidates: Tuple[List[Extent], ...] = ([], [], [], [])
        tolerance = _TOLERANCE
        inf = math.inf
        for obstacle in obstacles:
            min_x = obstacle.min_x
            min_y = obstacle.min_y
            max_x = obstacle.max_x
            max_y = obstacle.max_y
            if min_x < ox < max_x and min_y < oy < max_y:
                containing.append(obstacle)
                continue
            # _shrink, inlined.
            shrunk.append((min_x + tolerance, min_y + tolerance,
                           max_x - tolerance, max_y - tolerance))
            # Each extent is ``max(offset, 0.0)``, inlined: ``d < 0.0``
            # keeps max's answer for -0.0 (returned as is) and NaN.  inf:
            # the obstacle's interior does not reach that side of the
            # subscriber, so it cannot bind there.
            if max_x - ox > 0.0:
                east = min_x - ox
                if east < 0.0:
                    east = 0.0
            else:
                east = inf
            if ox - min_x > 0.0:
                west = ox - max_x
                if west < 0.0:
                    west = 0.0
            else:
                west = inf
            if max_y - oy > 0.0:
                north = min_y - oy
                if north < 0.0:
                    north = 0.0
            else:
                north = inf
            if oy - min_y > 0.0:
                south = oy - max_y
                if south < 0.0:
                    south = 0.0
            else:
                south = inf
            if north < north_max:
                if east < east_max:
                    candidates[0].append((east, north))
                if west < west_max:
                    candidates[1].append((west, north))
            if south < south_max:
                if west < west_max:
                    candidates[2].append((west, south))
                if east < east_max:
                    candidates[3].append((east, south))
        if containing:
            region = cell
            for obstacle in containing:
                clipped = region.intersection(obstacle)
                assert clipped is not None  # all contain the position
                region = clipped
            return MWPSRResult(rect=region, inside_alarm=True)

        tension_lists = (
            self._tension_points(candidates[0], east_max, north_max),
            self._tension_points(candidates[1], west_max, north_max),
            self._tension_points(candidates[2], west_max, south_max),
            self._tension_points(candidates[3], east_max, south_max),
        )
        combinations = 1
        for tension_list in tension_lists:
            combinations *= len(tension_list)
        if self.exhaustive or combinations <= self.auto_threshold:
            edges, perimeter, order = self._select_exhaustive(
                ox, oy, heading, tension_lists, shrunk)
        else:
            edges, perimeter, order = self._select_greedy(
                ox, oy, heading, tension_lists, shrunk)
        return MWPSRResult(rect=Rect(*edges), inside_alarm=False,
                           quadrant_order=order,
                           weighted_perimeter=perimeter)

    # ------------------------------------------------------------------
    # Steps 2-3: skyline, tension points (per quadrant)
    # ------------------------------------------------------------------
    @staticmethod
    def _tension_points(candidates: List[Extent], u_max: float,
                        v_max: float) -> List[Extent]:
        """Tension points of one quadrant in local ``(u, v)`` coordinates.

        Every returned point ``(u, v)`` spans a component rectangle
        ``[0, u] x [0, v]`` whose interior avoids all obstacles within
        the quadrant, and the list covers all maximal such rectangles.
        """
        if not candidates:
            return [(u_max, v_max)]
        if len(candidates) == 1:
            # The one-step staircase, without the skyline's sort.
            u, v = candidates[0]
            return [(u, v_max), (u_max, v)]
        # The skyline and its steps in one pass over the candidates in
        # ``(u, v)`` order.  A candidate binds when it is strictly lower
        # than every one before it (a candidate at most as far along
        # both axes as another is redundant, and so is a duplicate); each
        # binding candidate pairs its ``u`` with the previous one's ``v``.
        ordered = sorted(candidates)
        u, last_v = ordered[0]
        tension = [(u, v_max)]
        for u, v in ordered:
            if v < last_v:
                tension.append((u, last_v))
                last_v = v
        tension.append((u_max, last_v))
        return tension

    # ------------------------------------------------------------------
    # Step 4: selection
    # ------------------------------------------------------------------
    @staticmethod
    def _penetrates_obstacle(rect: Rect, obstacles: Sequence[Rect],
                             tolerance: float = 1e-9) -> bool:
        """:func:`_penetrates` for a finished rectangle (used by tests)."""
        return _penetrates(
            rect.min_x, rect.min_y, rect.max_x, rect.max_y,
            [_shrink(obstacle.min_x, obstacle.min_y, obstacle.max_x,
                     obstacle.max_y, tolerance) for obstacle in obstacles])

    def _quadrant_masses(self, heading: float) -> List[float]:
        return [self.model.world_sector_mass(heading, start, end)
                for start, end in _QUADRANT_SECTORS]

    def _select_greedy(self, ox: float, oy: float, heading: float,
                       tension_lists: Sequence[List[Extent]],
                       shrunk: Sequence[Edges]
                       ) -> Tuple[Edges, float, Tuple[int, ...]]:
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
        choices: List[Optional[Extent]] = [None] * 4
        # Refinement revisits many identical extent combinations; one
        # memo per computation caps the cost at distinct rectangles.
        score_memo: Dict[Edges, float] = {}
        corners: CornerMemo = {}

        def score_current() -> float:
            edges = self._choices_edges(ox, oy, choices)
            cached = score_memo.get(edges)
            if cached is None:
                if _penetrates(*edges, shrunk):
                    cached = -math.inf
                else:
                    cached = self._score_edges(*edges, ox, oy, heading,
                                               corners)[0]
                score_memo[edges] = cached
            return cached

        def trial_score(quadrant: int, option: Extent) -> float:
            saved = choices[quadrant]
            choices[quadrant] = option
            score = score_current()
            choices[quadrant] = saved
            return score

        def best_choice(quadrant: int) -> Extent:
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

        edges = self._choices_edges(ox, oy, choices)
        if _penetrates(*edges, shrunk):
            # Every reachable combination threads an alarm (subscriber
            # pinned on an alarm boundary in a degenerate corner of the
            # cell): fall back to the point region, which forces a
            # report on the next sample instead of silencing the alarm.
            # All four of its sides have zero length.
            return (ox, oy, ox, oy), 0.0, order
        return (edges,
                _perimeter(self.model, *edges, ox, oy, heading, corners),
                order)

    def _select_exhaustive(self, ox: float, oy: float, heading: float,
                           tension_lists: Sequence[List[Extent]],
                           shrunk: Sequence[Edges]
                           ) -> Tuple[Edges, float, Tuple[int, ...]]:
        """Quartic-time optimum: every component-rectangle combination.

        Combinations are visited in product order (quadrant I outermost)
        and only a strictly better score displaces the incumbent, so the
        first of several equal-score rectangles wins; a combination
        whose four extents were already seen is skipped, which cannot
        change the winner.

        No side weighs more than the model's ``peak_ratio`` per unit
        length, so a combination's score is at most its geometric
        perimeter times that ratio plus its area term.  A combination
        whose bound is strictly below the incumbent's score cannot win
        or tie; it is skipped before the seen-set, the penetration test
        and the corner lookups, which leaves the winner, its perimeter
        and every tie-break unchanged.
        """
        first, second, third, fourth = tension_lists
        model = self.model
        area_weight = self.area_weight
        peak_bound = 2.0 * model.peak_ratio * (1.0 + _BOUND_MARGIN)
        sqrt = math.sqrt
        best_score = -math.inf
        # See _select_greedy: when all combinations penetrate an alarm
        # the point region (perimeter zero) is the answer.
        best_edges: Edges = (ox, oy, ox, oy)
        best_perimeter = 0.0
        seen: Set[Tuple[float, float, float, float]] = set()
        corners: CornerMemo = {}
        # ``b if b < a else a`` is ``min(a, b)`` down to which operand a
        # tie returns, without a call per combination.
        for u1, v1 in first:
            for u2, v2 in second:
                top = v2 if v2 < v1 else v1
                max_y = oy + top
                for u3, v3 in third:
                    left = u3 if u3 < u2 else u2
                    min_x = ox - left
                    for u4, v4 in fourth:
                        right = u4 if u4 < u1 else u1
                        bottom = v4 if v4 < v3 else v3
                        min_y = oy - bottom
                        max_x = ox + right
                        width = max_x - min_x
                        height = max_y - min_y
                        area = area_weight * sqrt(width * height)
                        if (width + height) * peak_bound + area < best_score:
                            continue
                        extents = (right, top, left, bottom)
                        if extents in seen:
                            continue
                        seen.add(extents)
                        if _penetrates(min_x, min_y, max_x, max_y, shrunk):
                            continue
                        perimeter = _perimeter(model, min_x, min_y, max_x,
                                               max_y, ox, oy, heading, corners)
                        score = perimeter + area
                        if score > best_score:
                            best_score = score
                            best_edges = (min_x, min_y, max_x, max_y)
                            best_perimeter = perimeter
        return best_edges, best_perimeter, (0, 1, 2, 3)

    def _score_edges(self, min_x: float, min_y: float, max_x: float,
                     max_y: float, ox: float, oy: float, heading: float,
                     corners: CornerMemo) -> Tuple[float, float]:
        """``(selection score, weighted perimeter)`` of one candidate.

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
        perimeter = _perimeter(self.model, min_x, min_y, max_x, max_y,
                               ox, oy, heading, corners)
        if self.area_weight > 0.0:
            return (perimeter + self.area_weight
                    * math.sqrt((max_x - min_x) * (max_y - min_y)),
                    perimeter)
        return perimeter, perimeter

    def _score(self, rect: Rect, origin: Point, heading: float) -> float:
        """:meth:`_score_edges`' selection score of a finished rectangle."""
        if not rect.contains_point(origin):
            raise ValueError("origin must lie within the rectangle")
        return self._score_edges(rect.min_x, rect.min_y, rect.max_x,
                                 rect.max_y, origin.x, origin.y, heading,
                                 {})[0]

    @staticmethod
    def _choices_edges(ox: float, oy: float,
                       choices: Sequence[Optional[Extent]]) -> Edges:
        """Intersection rectangle of the committed component choices.

        Each extent is the minimum over its two *committed* contributors;
        an extent neither of whose quadrants has committed yet is zero.
        Crediting uncommitted quadrants with their cell-boundary room
        instead would reward a choice for phantom extents that later
        quadrants then destroy — the refinement rounds grow the rectangle
        back out from this conservative base.
        """
        q1, q2, q3, q4 = choices

        def extent(a: Optional[Extent], b: Optional[Extent],
                   index: int) -> float:
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
        return (ox - left, oy - bottom, ox + right, oy + top)

    # ------------------------------------------------------------------
    # Weighted perimeter
    # ------------------------------------------------------------------
    def _weighted_perimeter(self, rect: Rect, origin: Point,
                            heading: float) -> float:
        """:func:`_perimeter` of a finished rectangle around ``origin``."""
        if not rect.contains_point(origin):
            # Selection never produces this, but guard the public math.
            raise ValueError("origin must lie within the rectangle")
        return _perimeter(self.model, rect.min_x, rect.min_y, rect.max_x,
                          rect.max_y, origin.x, origin.y, heading, {})
