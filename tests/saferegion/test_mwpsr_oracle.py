"""The float-only MWPSR kernel against the ``Rect``-per-candidate one.

``repro.saferegion.MWPSRComputer`` scores every distinct rectangle once
and every distinct corner once on plain floats;
``tests/saferegion/oracle.py`` keeps the kernel it replaced, bodies
verbatim.  The two must agree with ``==`` — never a tolerance — on
``(rect, inside_alarm, quadrant_order, weighted_perimeter)``:

* over adversarial layouts (subscriber on alarm edges, corners and the
  cell border; obstacles abutting, nested, overlapping, straddling the
  quadrant axes, zero-width, with duplicate tension values; headings on
  the axes and one ulp around them) for every model and selection mode;
* on every computation of a BENCH replay, static and under the golden
  churn schedule;
* ``SteadyMotionModel.cumulative`` on a dense sweep and one ulp around
  every staircase edge.

The seeded mutations at the end are the suite's own test: each is a
plausible slip in the shipped kernel that the fixed corpus must catch.
"""

import importlib
import inspect
import math
import random
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import run_dynamic_simulation, run_simulation
from repro.experiments import BENCH, build_world, make_mwpsr_strategy
from repro.geometry import Point, Rect
from repro.index import CellId, GridOverlay
from repro.mobility import SteadyMotionModel, UniformMotionModel
from repro.saferegion import MWPSRComputer
from ..budget import examples
from ..engine.test_golden_mutation import golden_schedule
from .oracle import ReferenceMWPSRComputer, reference_cumulative

#: A round cell and one whose edges are ratio-form floats of a real grid.
CELLS = (Rect(0.0, 0.0, 1000.0, 1000.0),
         GridOverlay(Rect(0.0, 0.0, 10000.0, 10000.0), 1.11).cell_rect(
             CellId(3, 4)))
MODELS = (UniformMotionModel(), SteadyMotionModel(1, 2),
          SteadyMotionModel(1, 8), SteadyMotionModel(1, 32))
#: adaptive, the paper's literal objective, greedy through the shared
#: scorer (with and without refinement), forced enumeration.
MODES = ({}, {"area_weight": 0.0}, {"auto_threshold": 0},
         {"auto_threshold": 0, "refine_rounds": 0}, {"exhaustive": True})
AXIS_HEADINGS = (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, -math.pi)
FRACTIONS = (0.0, 0.1, 0.25, 0.4, 0.5, 0.5, 0.6, 0.75, 0.9, 1.0)


def around(value):
    """``value``, one ulp either side, and a sub-EPS nudge either side."""
    return (value, math.nextafter(value, -math.inf),
            math.nextafter(value, math.inf), value - 2.5e-10, value + 2.5e-10)


def draw_case(rng, cell):
    """One adversarial ``(position, heading, obstacles)`` inside ``cell``.

    Coordinates come from a coarse lattice over the cell (so edges,
    corners and tension values coincide), its ulp neighbours, and a few
    arbitrary floats (so ``ox + (min_x - ox)`` rounds past ``min_x``).
    """
    def lattice(low, extent):
        values = [low + extent * fraction for fraction in FRACTIONS]
        values += [low - extent * 0.1, low + extent * 1.1]  # outside the cell
        pool = [near for value in values for near in around(value)]
        return pool + [rng.uniform(low, low + extent) for _ in range(6)]

    xs = lattice(cell.min_x, cell.width)
    ys = lattice(cell.min_y, cell.height)
    position = Point(
        min(max(rng.choice(xs), cell.min_x), cell.max_x),
        min(max(rng.choice(ys), cell.min_y), cell.max_y))
    obstacles = []
    for _ in range(rng.randint(0, 8)):
        x_low, x_high = sorted((rng.choice(xs), rng.choice(xs)))
        y_low, y_high = sorted((rng.choice(ys), rng.choice(ys)))
        obstacles.append(Rect(x_low, y_low, x_high, y_high))
        if rng.random() < 0.15:
            obstacles.append(obstacles[-1])     # a duplicate alarm region
    headings = [near for axis in AXIS_HEADINGS for near in around(axis)[:3]]
    heading = (rng.choice(headings) if rng.random() < 0.5
               else rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    return position, heading, obstacles


def outcome(result):
    return (result.rect, result.inside_alarm, result.quadrant_order,
            result.weighted_perimeter)


def assert_equals_oracle(shipped_class, model, mode, cell, case):
    position, heading, obstacles = case
    shipped = shipped_class(model, **mode).compute(position, heading, cell,
                                                   obstacles)
    reference = ReferenceMWPSRComputer(model, **mode).compute(
        position, heading, cell, obstacles)
    assert outcome(shipped) == outcome(reference), (model, mode, cell, case)


# ----------------------------------------------------------------------
# (i) adversarial differential
# ----------------------------------------------------------------------
@settings(max_examples=examples(400, 5000), deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CELLS),
       st.sampled_from(MODELS), st.sampled_from(MODES))
def test_property_shipped_kernel_equals_the_reference(rng, cell, model, mode):
    assert_equals_oracle(MWPSRComputer, model, mode, cell,
                         draw_case(rng, cell))


#: Named layouts the random draw should not be trusted to find.
SQUARE = CELLS[0]
NAMED_CASES = {
    "subscriber on an alarm corner":
        (Point(500.0, 500.0), 0.0, [Rect(500.0, 500.0, 750.0, 750.0)]),
    "subscriber on the cell corner, alarm abutting it":
        (Point(0.0, 0.0), math.pi / 4.0, [Rect(0.0, 100.0, 250.0, 400.0)]),
    "alarm straddling both quadrant axes below":
        (Point(500.0, 500.0), -math.pi / 2.0,
         [Rect(250.0, 100.0, 750.0, 400.0)]),
    "nested and overlapping alarms":
        (Point(100.0, 100.0), math.pi,
         [Rect(250.0, 250.0, 750.0, 750.0), Rect(400.0, 400.0, 600.0, 600.0),
          Rect(500.0, 100.0, 900.0, 500.0)]),
    "duplicate tension values on every side, exact score ties":
        (Point(500.0, 500.0), 0.0,
         [Rect(750.0, 750.0, 900.0, 900.0), Rect(100.0, 750.0, 250.0, 900.0),
          Rect(100.0, 100.0, 250.0, 250.0), Rect(750.0, 100.0, 900.0, 250.0)]),
    "zero-width alarm on the subscriber's axis":
        (Point(500.0, 250.0), math.pi / 2.0,
         [Rect(500.0, 400.0, 500.0, 600.0), Rect(250.0, 600.0, 750.0, 750.0)]),
    "sliver narrower than EPS pinched between two alarms":
        (Point(500.0, 500.0), 1.0,
         [Rect(250.0, 0.0, 500.0 - 2.5e-10, 1000.0),
          Rect(500.0 + 2.5e-10, 0.0, 750.0, 1000.0)]),
    "every combination threads the alarm: the point region":
        (Point(0.0, 0.0), 0.0, [Rect(-100.0, -100.0, 250.0, 250.0)]),
    "subscriber on the shared edge of two abutting alarms: of two "
    "combinations equal but for bottom, the first threads one":
        (Point(900.0, 100.0), 1.0,
         [Rect(500.0, 0.0, 900.0, 750.0), Rect(900.0, 0.0, 1000.0, 250.0)]),
}


@pytest.mark.parametrize("name", NAMED_CASES)
@pytest.mark.parametrize("mode", MODES, ids=str)
@pytest.mark.parametrize("model", MODELS,
                         ids=["uniform", "z=2", "z=8", "z=32"])
def test_named_layouts_equal_the_reference(model, mode, name):
    assert_equals_oracle(MWPSRComputer, model, mode, SQUARE,
                         NAMED_CASES[name])


# ----------------------------------------------------------------------
# (ii) every computation of a BENCH replay
# ----------------------------------------------------------------------
@pytest.fixture
def compared_computes(monkeypatch):
    """Hold every ``compute`` of the run to the reference as it happens."""
    shipped_compute = MWPSRComputer.compute
    counts = {"computes": 0, "exhaustive": 0}

    def compute(self, position, heading, cell, obstacles):
        result = shipped_compute(self, position, heading, cell, obstacles)
        reference = ReferenceMWPSRComputer(
            self.model, self.exhaustive, self.refine_rounds,
            self.area_weight, self.auto_threshold)
        assert outcome(result) == outcome(reference.compute(
            position, heading, cell, obstacles))
        counts["computes"] += 1
        counts["exhaustive"] += result.quadrant_order == (0, 1, 2, 3)
        return result

    monkeypatch.setattr(MWPSRComputer, "compute", compute)
    return counts


class TestBenchReplayEqualsTheReference:
    def test_static_replay(self, compared_computes):
        world = build_world(BENCH)
        result = run_simulation(world, make_mwpsr_strategy(z=32))
        assert result.accuracy.perfect
        assert (compared_computes["computes"]
                == result.metrics.safe_region_computations > 1000)
        # what the shipped workloads run is the enumeration
        assert (compared_computes["exhaustive"]
                > 0.9 * compared_computes["computes"])

    def test_replay_under_the_golden_churn_schedule(self, compared_computes):
        world = build_world(BENCH)
        result = run_dynamic_simulation(world, make_mwpsr_strategy(z=32),
                                        golden_schedule(world))
        assert result.accuracy.perfect
        assert (compared_computes["computes"]
                == result.metrics.safe_region_computations > 1000)


# ----------------------------------------------------------------------
# (iii) the one-frame cumulative
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", [SteadyMotionModel(1, 2),
                                   SteadyMotionModel(1, 8),
                                   SteadyMotionModel(1, 32),
                                   SteadyMotionModel(0.5, 3)],
                         ids=["z=2", "z=8", "z=32", "y=0.5,z=3"])
def test_cumulative_equals_the_four_frame_chain(model):
    steps = 20000
    angles = [-3.0 * math.pi + 6.0 * math.pi * step / steps
              for step in range(steps + 1)]
    for edge in model._edges:
        for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
            for signed in (edge, -edge):
                angles.extend(around(signed + turn)[:3])
    for phi in angles:
        assert model.cumulative(phi) == reference_cumulative(model, phi), phi


# ----------------------------------------------------------------------
# (iv) the suite's own test: seeded slips in the shipped kernel
# ----------------------------------------------------------------------
def corpus():
    """A fixed draw of adversarial cases, each with a model and a mode."""
    rng = random.Random(23)
    rows = [(model, mode, SQUARE, case) for case in NAMED_CASES.values()
            for model in MODELS for mode in MODES]
    for index in range(800):
        cell = CELLS[index % len(CELLS)]
        rows.append((MODELS[index % len(MODELS)],
                     MODES[(index // len(MODELS)) % len(MODES)], cell,
                     draw_case(rng, cell)))
    return rows


def assert_corpus_equals_oracle(shipped_class):
    for model, mode, cell, case in corpus():
        assert_equals_oracle(shipped_class, model, mode, cell, case)


def test_shipped_kernel_passes_the_corpus():
    assert_corpus_equals_oracle(MWPSRComputer)


#: ``(what slipped, shipped source, mutated source)``; every site is
#: unique in ``saferegion/mwpsr.py`` unless a count is given.
MUTATIONS = [
    (">= for > in the winner test",
     "                        if score > best_score:\n",
     "                        if score >= best_score:\n", 1),
    ("tolerance dropped from the penetration boxes",
     "    return (min_x + tolerance, min_y + tolerance,\n"
     "            max_x - tolerance, max_y - tolerance)\n",
     "    return (min_x, min_y, max_x, max_y)\n", 1),
    ("corner memo keyed by x alone",
     "(max_x, min_y)", "(max_x,)", 2),
    ("dedupe keyed without bottom",
     "extents = (right, top, left, bottom)", "extents = (right, top, left)",
     1),
    ("the fzero(length) side-skip removed",
     "        if fzero(length):\n            continue\n", "", 1),
    ("the wrap mass += 1.0 removed",
     "                mass += 1.0  # the CCW",
     "                pass  # the CCW", 1),
]


def mutant_computer(shipped, mutated, count):
    """``MWPSRComputer`` from its module's source, edited and re-run."""
    module = importlib.import_module(MWPSRComputer.__module__)
    source = inspect.getsource(module)
    assert source.count(shipped) == count, "the mutation site moved"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__dict__.update(__package__=module.__package__)
    # dataclass() resolves string annotations through sys.modules
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(shipped, mutated), module.__file__,
                     "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant.MWPSRComputer


@pytest.mark.parametrize("what,shipped,mutated,count", MUTATIONS,
                         ids=[row[0] for row in MUTATIONS])
def test_seeded_mutation_is_caught(what, shipped, mutated, count):
    mutant = mutant_computer(shipped, mutated, count)
    with pytest.raises(AssertionError):
        assert_corpus_equals_oracle(mutant)
