"""Correctness tests for the MWPSR algorithm.

The central invariant (the paper's safe-region definition): the computed
rectangle contains the subscriber, stays inside the grid cell, and its
interior is disjoint from every obstacle's interior.  Property tests
drive this over randomized obstacle layouts, including the two hard
cases the paper calls out — overlapping alarm regions and alarm regions
intersecting the quadrant axes.
"""

import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import values
from repro.geometry import Point, Rect
from repro.mobility import SteadyMotionModel, UniformMotionModel
from repro.saferegion import MWPSRComputer, MWPSRResult, region_is_safe

CELL = Rect(0, 0, 1000, 1000)


@st.composite
def obstacles_in_cell(draw, max_count=8):
    count = draw(st.integers(min_value=0, max_value=max_count))
    rects = []
    for _ in range(count):
        x = draw(st.floats(min_value=-100, max_value=1000))
        y = draw(st.floats(min_value=-100, max_value=1000))
        w = draw(st.floats(min_value=1, max_value=400))
        h = draw(st.floats(min_value=1, max_value=400))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


@st.composite
def positions_in_cell(draw):
    return Point(draw(st.floats(min_value=0, max_value=1000)),
                 draw(st.floats(min_value=0, max_value=1000)))


def assert_valid_safe_region(result, position, obstacles, cell=CELL):
    rect = result.rect
    assert rect.contains_point(position), "safe region must contain the user"
    if not result.inside_alarm:
        assert cell.contains_rect(rect), "safe region must stay in the cell"
        assert region_is_safe(rect, obstacles), \
            "safe region interior must avoid every obstacle interior"
        # The stronger point-set form: interior-disjointness is vacuous
        # for a degenerate rect, but the client suppresses reporting
        # for every point the closed rect contains, so no point of the
        # rect may lie strictly inside an obstacle.
        assert not MWPSRComputer._penetrates_obstacle(rect, obstacles), \
            "safe region must not thread an obstacle's interior"


class TestResultValue:
    def test_built_through_its_slots(self):
        result = MWPSRResult(CELL, False, (0, 1, 2, 3), 2.5)
        assert MWPSRResult.__init__.__module__ == values.__name__
        assert not hasattr(result, "__dict__")
        with pytest.raises(FrozenInstanceError):
            result.inside_alarm = True  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(result)) == result

    def test_the_hu_baselines_positional_call_fits(self):
        assert (MWPSRResult(CELL, inside_alarm=False)
                == MWPSRResult(rect=CELL, inside_alarm=False,
                               quadrant_order=(), weighted_perimeter=0.0))


class TestBasicCases:
    def test_no_obstacles_returns_cell(self):
        result = MWPSRComputer().compute(Point(400, 400), 0.0, CELL, [])
        assert result.rect == CELL
        assert not result.inside_alarm

    def test_position_outside_cell_raises(self):
        with pytest.raises(ValueError):
            MWPSRComputer().compute(Point(-1, 0), 0.0, CELL, [])

    def test_single_obstacle_ahead(self):
        obstacle = Rect(600, 300, 700, 700)
        result = MWPSRComputer().compute(Point(200, 500), 0.0, CELL,
                                         [obstacle])
        assert_valid_safe_region(result, Point(200, 500), [obstacle])
        assert result.rect.area > 0

    def test_obstacle_straddles_vertical_axis(self):
        """Alarm spanning the subscriber's x — the [10] failure mode."""
        position = Point(500, 200)
        obstacle = Rect(400, 600, 600, 700)  # above, straddling x=500
        result = MWPSRComputer().compute(position, 0.0, CELL, [obstacle])
        assert_valid_safe_region(result, position, [obstacle])
        # the region must not extend above the obstacle's lower edge while
        # also spanning its x-range
        rect = result.rect
        if rect.max_x > 400 and rect.min_x < 600:
            assert rect.max_y <= 600

    def test_obstacle_straddles_both_axes_below(self):
        position = Point(500, 500)
        obstacle = Rect(300, 100, 700, 400)  # below, spanning x of user
        result = MWPSRComputer().compute(position, -math.pi / 2, CELL,
                                         [obstacle])
        assert_valid_safe_region(result, position, [obstacle])

    def test_overlapping_obstacles(self):
        """Overlapping alarm regions — the other [10] failure mode."""
        position = Point(100, 100)
        obstacles = [Rect(300, 50, 500, 300), Rect(400, 100, 600, 400)]
        result = MWPSRComputer().compute(position, 0.0, CELL, obstacles)
        assert_valid_safe_region(result, position, obstacles)

    def test_user_strictly_inside_one_alarm(self):
        obstacle = Rect(400, 400, 600, 600)
        result = MWPSRComputer().compute(Point(500, 500), 0.0, CELL,
                                         [obstacle])
        assert result.inside_alarm
        assert result.rect == obstacle

    def test_user_inside_two_alarms_gets_intersection(self):
        a = Rect(300, 300, 600, 600)
        b = Rect(450, 450, 800, 800)
        result = MWPSRComputer().compute(Point(500, 500), 0.0, CELL, [a, b])
        assert result.inside_alarm
        assert result.rect == Rect(450, 450, 600, 600)

    def test_user_on_alarm_boundary_not_inside(self):
        """Boundary contact is not containment (interior semantics)."""
        obstacle = Rect(500, 400, 700, 600)
        position = Point(500, 500)  # on the obstacle's left edge
        result = MWPSRComputer().compute(position, math.pi, CELL, [obstacle])
        assert not result.inside_alarm
        assert_valid_safe_region(result, position, [obstacle])
        # no room to the right at all
        assert result.rect.max_x <= 500

    def test_user_in_cell_corner(self):
        position = Point(0, 0)
        obstacle = Rect(100, 100, 200, 200)
        result = MWPSRComputer().compute(position, math.pi / 4, CELL,
                                         [obstacle])
        assert_valid_safe_region(result, position, [obstacle])

    def test_degenerate_squeeze(self):
        """Two alarms pinching the user leave a thin but valid region."""
        position = Point(500, 500)
        obstacles = [Rect(0, 510, 1000, 600), Rect(0, 400, 1000, 490)]
        result = MWPSRComputer().compute(position, 0.0, CELL, obstacles)
        assert_valid_safe_region(result, position, obstacles)
        assert result.rect.min_y >= 490
        assert result.rect.max_y <= 510
        assert result.rect.width == pytest.approx(1000)


class TestSelectionQuality:
    def test_exhaustive_at_least_greedy_score(self):
        rng = random.Random(42)
        for trial in range(30):
            position = Point(rng.uniform(50, 950), rng.uniform(50, 950))
            obstacles = []
            for _ in range(rng.randint(1, 6)):
                x, y = rng.uniform(0, 950), rng.uniform(0, 950)
                obstacles.append(Rect(x, y, x + rng.uniform(10, 300),
                                      y + rng.uniform(10, 300)))
            obstacles = [o for o in obstacles
                         if not o.interior_contains_point(position)]
            heading = rng.uniform(-math.pi, math.pi)
            model = SteadyMotionModel(1, 8)
            greedy = MWPSRComputer(model)
            exhaustive = MWPSRComputer(model, exhaustive=True)
            g = greedy.compute(position, heading, CELL, obstacles)
            e = exhaustive.compute(position, heading, CELL, obstacles)
            g_score = greedy._score(g.rect, position, heading)
            e_score = exhaustive._score(e.rect, position, heading)
            assert e_score >= g_score - 1e-6

    def test_weighted_prefers_forward_room(self):
        """With traffic ahead and behind, the weighted region leans ahead."""
        position = Point(500, 500)
        # Symmetric obstacles left and right.
        obstacles = [Rect(700, 0, 720, 1000), Rect(280, 0, 300, 1000)]
        model = SteadyMotionModel(1, 4)
        result = MWPSRComputer(model).compute(position, 0.0, CELL, obstacles)
        # heading +x: the region keeps all available forward room
        assert result.rect.max_x == pytest.approx(700)
        assert_valid_safe_region(result, position, obstacles)

    def test_zero_refine_rounds_still_safe(self):
        position = Point(500, 999)
        obstacles = [Rect(300, 900, 700, 980)]
        computer = MWPSRComputer(refine_rounds=0)
        result = computer.compute(position, math.pi, CELL, obstacles)
        assert_valid_safe_region(result, position, obstacles)

    def test_literal_paper_objective_supported(self):
        computer = MWPSRComputer(area_weight=0.0)
        result = computer.compute(Point(500, 500), 0.0, CELL,
                                  [Rect(600, 0, 650, 1000)])
        assert_valid_safe_region(result, Point(500, 500),
                                 [Rect(600, 0, 650, 1000)])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MWPSRComputer(refine_rounds=-1)
        with pytest.raises(ValueError):
            MWPSRComputer(area_weight=-0.5)


class TestSubscriberOnObstacleBoundary:
    """The subscriber pinned exactly on an alarm's edge.

    Regression: the skyline admits zero-width component rectangles at
    the quadrant axis, and a sliver threading the alarm's interior has
    an *empty* interior — interior-disjointness held vacuously while
    the region silenced the alarm for a client wandering inside it.
    """

    OBSTACLE = Rect(0.0, 0.0, 5.0, 5.0)

    @pytest.mark.parametrize("position", [
        Point(1, 0), Point(3, 0),      # bottom edge, x inside the span
        Point(0, 1), Point(0, 3),      # left edge, y inside the span
        Point(5, 3), Point(3, 5),      # right / top edges
        Point(0, 0), Point(5, 5),      # corners
    ], ids=str)
    @pytest.mark.parametrize("computer", [
        MWPSRComputer(),
        MWPSRComputer(auto_threshold=0),   # force the greedy
        MWPSRComputer(exhaustive=True),
    ], ids=["auto", "greedy", "exhaustive"])
    def test_region_never_threads_the_alarm(self, computer, position):
        result = computer.compute(position, 0.0, CELL, [self.OBSTACLE])
        assert not result.inside_alarm
        assert_valid_safe_region(result, position, [self.OBSTACLE])

    def test_boundary_region_is_an_edge_sliver_not_a_point(self):
        """The fallback keeps the safe room along the alarm's edge."""
        result = MWPSRComputer().compute(Point(1, 0), 0.0, CELL,
                                         [self.OBSTACLE])
        assert result.rect == Rect(0, 0, 1000, 0.0)


@settings(max_examples=120, deadline=None)
@given(positions_in_cell(), obstacles_in_cell(),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_safety_invariant_greedy(position, obstacles, heading):
    computer = MWPSRComputer(SteadyMotionModel(1, 8))
    result = computer.compute(position, heading, CELL, obstacles)
    assert_valid_safe_region(result, position, obstacles)


@settings(max_examples=60, deadline=None)
@given(positions_in_cell(), obstacles_in_cell(max_count=5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_safety_invariant_exhaustive(position, obstacles, heading):
    computer = MWPSRComputer(UniformMotionModel(), exhaustive=True)
    result = computer.compute(position, heading, CELL, obstacles)
    assert_valid_safe_region(result, position, obstacles)


@settings(max_examples=60, deadline=None)
@given(positions_in_cell(), obstacles_in_cell(max_count=5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_deterministic(position, obstacles, heading):
    """Identical inputs produce identical safe regions (pure function)."""
    computer = MWPSRComputer(SteadyMotionModel(1, 8))
    first = computer.compute(position, heading, CELL, obstacles)
    second = computer.compute(position, heading, CELL, obstacles)
    assert first.rect == second.rect
    assert first.inside_alarm == second.inside_alarm


@settings(max_examples=60, deadline=None)
@given(positions_in_cell(), obstacles_in_cell(max_count=4),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_exhaustive_dominates_greedy(position, obstacles, heading):
    """The quartic optimum never scores below the refined greedy."""
    model = SteadyMotionModel(1, 8)
    greedy = MWPSRComputer(model)
    exhaustive = MWPSRComputer(model, exhaustive=True)
    g = greedy.compute(position, heading, CELL, obstacles)
    e = exhaustive.compute(position, heading, CELL, obstacles)
    if g.inside_alarm or e.inside_alarm:
        assert g.rect == e.rect
        return
    assert (exhaustive._score(e.rect, position, heading)
            >= greedy._score(g.rect, position, heading) - 1e-6)
