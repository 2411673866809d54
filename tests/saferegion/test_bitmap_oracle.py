"""Differential suite: the runtime bitmap vs the cell-by-cell definition.

:class:`repro.saferegion.PyramidBitmap` builds its levels from row masks,
closes all-zero subtrees in closed form and finds child blocks by rank;
the oracle (``oracle.py``) tests every emitted cell's rectangle against
every obstacle and looks cells up in a dict.  They must agree on the
serialization, its length, the stored levels, the coverage and every
probe — above all on the geometry where reimplementations drift:
obstacles snapped bit-exactly to cell edges of any level, zero-width and
zero-area obstacles, obstacles covering the whole base cell or lying
wholly outside it, nested and abutting pairs, and probe points on the
edges and corners of every level and one ulp to either side of them.

An edit (:meth:`PyramidBitmap.edit`: a bitmap with obstacles added,
copying the blocks they do not touch) must equal the fresh build over
both sets in every stored byte, rank, length and coverage float, on the
same adversarial geometry split into a base and its additions — and
leave the base as it was.

Beyond the drawn worlds, every build and every edit of a BENCH
PBSR(h=5) and GBSR replay must equal the definition (every
``REPLAY_STRIDE``-th of each in tier-1, all of them under
``REPRO_DEEP=1``).  The seeded mutations at the end are the suite's own
test: each is a plausible slip in the row-mask kernel or the edit's
copying that the fixed corpus, built and edited, must catch.
"""

import functools
import importlib
import inspect
import math
import random
import sys
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import run_simulation
from repro.experiments import BENCH, build_world, make_pbsr_strategy
from repro.geometry import Point, Rect
from repro.index import Pyramid, PyramidCell
from repro.saferegion import PBSRComputer, PyramidBitmap, decode_bitstring
from repro.saferegion.bitmap import COVERED
from ..budget import examples
from .oracle import build_pyramid_bitmap, locate, stored_levels
from .test_bitmap_probe_edges import walked_cell

#: Base cells: the round one most tests use, an offset non-square one
#: whose edges are not exactly representable, and a unit cell.
BASES = (Rect(0.0, 0.0, 900.0, 900.0),
         Rect(1234.5, -987.25, 2012.2, -653.95),
         Rect(0.0, 0.0, 1.0, 1.0))

#: The oracle enumerates every emitted cell; skip examples whose
#: obstacles would make it enumerate more than this many leaf cells.
ORACLE_LEAF_BUDGET = 30000


def _x_edge(pyramid, level, k):
    """Vertical cell edge ``k`` of ``level``, exactly as cells carry it."""
    cols, _rows = pyramid.level_dims[level]
    if k == cols:
        return pyramid.cell_rect(PyramidCell(level, k - 1, 0)).max_x
    return pyramid.cell_rect(PyramidCell(level, k, 0)).min_x


def _y_edge(pyramid, level, k):
    _cols, rows = pyramid.level_dims[level]
    if k == rows:
        return pyramid.cell_rect(PyramidCell(level, 0, k - 1)).max_y
    return pyramid.cell_rect(PyramidCell(level, 0, k)).min_y


# ----------------------------------------------------------------------
# Obstacle shapes, drawn by hypothesis and by the seeded corpus alike
# ----------------------------------------------------------------------
def snapped_rect(pyramid, level, i0, i1, j0, j1):
    """A rectangle with every edge exactly on a cell edge of ``level``.

    Equal indices give zero-width / zero-area obstacles.
    """
    i0, i1 = sorted((i0, i1))
    j0, j1 = sorted((j0, j1))
    return Rect(_x_edge(pyramid, level, i0), _y_edge(pyramid, level, j0),
                _x_edge(pyramid, level, i1), _y_edge(pyramid, level, j1))


def free_rect(pyramid, x0, x1, y0, y1):
    """A rectangle at unit coordinates of the base (outside if < 0, > 1)."""
    base = pyramid.base
    x0, x1 = sorted((x0, x1))
    y0, y1 = sorted((y0, y1))
    return Rect(base.min_x + base.width * x0, base.min_y + base.height * y0,
                base.min_x + base.width * x1, base.min_y + base.height * y1)


def special_rects(pyramid):
    base = pyramid.base
    return [
        base,                                        # exactly the base
        base.expanded(base.width),                   # covers it
        Rect(base.max_x, base.min_y,                 # abuts it outside
             base.max_x + base.width, base.max_y),
        Rect(base.min_x - 2 * base.width, base.min_y,  # wholly outside
             base.min_x - base.width, base.max_y),
    ]


def relative(rect, kind):
    """A rectangle nested in ``rect`` (0) or sharing an edge with it."""
    if kind == 0:
        return Rect(rect.min_x + rect.width / 4, rect.min_y + rect.height / 4,
                    rect.max_x - rect.width / 4, rect.max_y - rect.height / 4)
    if kind == 1:
        return Rect(rect.max_x, rect.min_y,
                    rect.max_x + rect.width / 2, rect.max_y)
    return Rect(rect.min_x, rect.min_y - rect.height / 2,
                rect.max_x, rect.min_y)


@st.composite
def pyramids(draw):
    base = draw(st.sampled_from(BASES))
    return Pyramid(base, fan_cols=draw(st.integers(2, 3)),
                   fan_rows=draw(st.integers(2, 3)),
                   height=draw(st.integers(1, 7)))


@st.composite
def snapped_rects(draw, pyramid):
    level = draw(st.integers(0, pyramid.height))
    cols, rows = pyramid.level_dims[level]
    return snapped_rect(pyramid, level,
                        *draw(st.tuples(st.integers(0, cols),
                                        st.integers(0, cols),
                                        st.integers(0, rows),
                                        st.integers(0, rows))))


@st.composite
def free_rects(draw, pyramid):
    """A rectangle with arbitrary float edges in and around the base."""
    unit = st.floats(-0.2, 1.2)
    return free_rect(pyramid, *draw(st.tuples(unit, unit, unit, unit)))


@st.composite
def obstacle_lists(draw, pyramid):
    rects = draw(st.lists(
        st.one_of(snapped_rects(pyramid), snapped_rects(pyramid),
                  free_rects(pyramid),
                  st.sampled_from(special_rects(pyramid))),
        max_size=4))
    for rect in list(rects):
        if draw(st.booleans()):
            rects.append(relative(rect, draw(st.integers(0, 2))))
    return rects


def draw_obstacles(rng, pyramid):
    """:func:`obstacle_lists` drawn from a seeded ``random.Random``."""
    rects = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(4)
        if kind < 2:
            level = rng.randint(0, pyramid.height)
            cols, rows = pyramid.level_dims[level]
            rects.append(snapped_rect(pyramid, level,
                                      rng.randint(0, cols),
                                      rng.randint(0, cols),
                                      rng.randint(0, rows),
                                      rng.randint(0, rows)))
        elif kind == 2:
            rects.append(free_rect(pyramid, *(rng.uniform(-0.2, 1.2)
                                              for _ in range(4))))
        else:
            rects.append(rng.choice(special_rects(pyramid)))
    for rect in list(rects):
        if rng.random() < 0.5:
            rects.append(relative(rect, rng.randrange(3)))
    return rects


def _oracle_leaf_cells(pyramid, obstacles):
    """Upper bound on the leaf cells the obstacles force the oracle into."""
    cols, rows = pyramid.level_dims[pyramid.height]
    base = pyramid.base
    return sum(base.intersection_area(obstacle) / base.area * cols * rows
               + 2 * (cols + rows)
               for obstacle in obstacles
               if obstacle.interior_intersects(base))


def edge_points(pyramid):
    """Points on cell corners of every level, and one ulp around them."""
    base = pyramid.base
    points = [Point(base.min_x - 1.0, base.min_y), base.center]
    for level, (cols, rows) in enumerate(pyramid.level_dims):
        xs = {_x_edge(pyramid, level, k)
              for k in (0, 1, cols // 2, cols - 1, cols)}
        ys = {_y_edge(pyramid, level, k)
              for k in (0, 1, rows // 2, rows - 1, rows)}
        for x in sorted(xs):
            for y in sorted(ys):
                points.append(Point(x, y))
                points.append(Point(math.nextafter(x, math.inf), y))
                points.append(Point(math.nextafter(x, -math.inf),
                                    math.nextafter(y, -math.inf)))
    return points


# ----------------------------------------------------------------------
# Named worlds
# ----------------------------------------------------------------------
def abutting_world():
    """An alarm abutting the base and two on its bottom-left cell."""
    pyramid = Pyramid(BASES[1], fan_cols=3, fan_rows=2, height=1)
    base = pyramid.base
    return pyramid, [Rect(base.min_x, base.min_y, base.min_x, base.min_y),
                     Rect(base.min_x, base.min_y,
                          _x_edge(pyramid, 1, 1), _y_edge(pyramid, 1, 1)),
                     Rect(base.max_x, base.min_y,
                          base.max_x + base.width, base.max_y)]


def several_levels_world():
    """Covered cells of different levels, interleaved in wire order."""
    return Pyramid(BASES[0], 3, 3, 4), [
        Rect(0, 600, 300, 900),      # one level-1 cell
        Rect(400, 400, 500, 500),    # one level-2 cell
        Rect(600, 0, 900, 250),      # not cell-aligned
        Rect(333, 0, 334, 900)]      # a sliver through it all


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def assert_equals_definition(bitmap, pyramid, obstacles):
    """Everything a build stores equals the definition; the bits."""
    oracle, _ = build_pyramid_bitmap(pyramid, obstacles)
    bits = oracle.to_bitstring()
    assert bitmap.to_bitstring() == bits
    assert bitmap.bit_length() == oracle.bit_length() == len(bits)
    assert bitmap._levels == stored_levels(oracle, obstacles)
    assert math.isclose(bitmap.coverage(), oracle.coverage(),
                        rel_tol=1e-12, abs_tol=0.0)
    return oracle, bits


def assert_matches_oracle(pyramid, obstacles, points):
    bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
    oracle, bits = assert_equals_definition(bitmap, pyramid, obstacles)
    decoded = decode_bitstring(pyramid, bits)
    assert decoded.to_bitstring() == bits
    assert decoded.bit_length() == len(bits)
    assert math.isclose(decoded.coverage(), oracle.coverage(),
                        rel_tol=1e-9, abs_tol=1e-15)
    for point in points:
        expected = oracle.probe(point)
        assert bitmap.probe(point) == expected, point
        assert decoded.probe(point) == expected, point
    return bitmap


@st.composite
def worlds(draw):
    pyramid = draw(pyramids())
    obstacles = draw(obstacle_lists(pyramid))
    assume(_oracle_leaf_cells(pyramid, obstacles) <= ORACLE_LEAF_BUDGET)
    unit = st.floats(0.0, 1.0)
    base = pyramid.base
    points = [Point(base.min_x + base.width * x, base.min_y + base.height * y)
              for x, y in draw(st.lists(st.tuples(unit, unit), max_size=8))]
    return pyramid, obstacles, points


class TestAgainstTheOracle:
    @settings(max_examples=examples(150, 2000), deadline=None)
    @given(worlds())
    def test_adversarial_geometry(self, world):
        pyramid, obstacles, points = world
        assert_matches_oracle(pyramid, obstacles,
                              edge_points(pyramid) + points)

    @pytest.mark.parametrize("fan_cols,fan_rows,height",
                             [(2, 2, 7), (3, 2, 5), (3, 3, 4)])
    def test_whole_base_covered(self, fan_cols, fan_rows, height):
        """One covering alarm: the closed form equals full enumeration."""
        for base in BASES:
            pyramid = Pyramid(base, fan_cols, fan_rows, height)
            bitmap = assert_matches_oracle(
                pyramid, [base.expanded(1.0)], edge_points(pyramid))
            assert bitmap._levels[0] == bytes([COVERED])
            assert bitmap.coverage() == 0.0

    def test_covered_subtrees_at_several_levels(self):
        """Covered cells of different levels interleave in the wire order."""
        pyramid, obstacles = several_levels_world()
        bitmap = assert_matches_oracle(pyramid, obstacles,
                                       edge_points(pyramid))
        assert sum(COVERED in cells for cells in bitmap._levels) >= 2


@st.composite
def parent_cells(draw, pyramid):
    """A rectangle that is, or contains, one cell above the leaf level."""
    level = draw(st.integers(0, pyramid.height - 1))
    cols, rows = pyramid.level_dims[level]
    col = draw(st.integers(0, cols - 1))
    row = draw(st.integers(0, rows - 1))
    cell = snapped_rect(pyramid, level, col, col + 1, row, row + 1)
    if draw(st.booleans()):
        return cell
    return cell.expanded(min(cell.width, cell.height) / 4)


@st.composite
def edit_worlds(draw):
    """A pyramid and its obstacles split into a base and the added."""
    pyramid = draw(pyramids())
    obstacles = draw(obstacle_lists(pyramid))
    obstacles += draw(st.lists(parent_cells(pyramid), max_size=2))
    added = draw(st.lists(st.booleans(), min_size=len(obstacles),
                          max_size=len(obstacles)))
    return (pyramid,
            [rect for rect, new in zip(obstacles, added) if not new],
            [rect for rect, new in zip(obstacles, added) if new])


def assert_edit_equals_build(pyramid, public, added):
    """``from_obstacles(public).edit(added)`` is the build over both."""
    base = PyramidBitmap.from_obstacles(pyramid, public)
    levels, bits = base._levels, base.to_bitstring()
    edited = base.edit(added)
    fresh = PyramidBitmap.from_obstacles(pyramid, public + added)
    assert edited._levels == fresh._levels
    assert edited._ranks == fresh._ranks
    assert edited.bit_length() == fresh.bit_length()
    assert edited.coverage() == fresh.coverage()
    assert base._levels == levels and base.to_bitstring() == bits
    return edited


class TestEditsEqualBuilds:
    @settings(max_examples=examples(150, 2000), deadline=None)
    @given(edit_worlds())
    def test_adversarial_geometry(self, world):
        assert_edit_equals_build(*world)

    def test_covered_and_split_parents_meet_the_added(self):
        """Additions across covered, split and safe cells of several
        levels: a split level-1 cell turns covered, a safe one splits,
        and the untouched split ones are copied with their subtrees."""
        pyramid, obstacles = several_levels_world()
        edited = assert_edit_equals_build(
            pyramid, obstacles, [Rect(250, 550, 350, 650),
                                 Rect(0, 0, 100, 100),
                                 Rect(300, 300, 600, 600)])
        assert edited._levels != PyramidBitmap.from_obstacles(
            pyramid, obstacles)._levels

    def test_a_decoded_bitmap_cannot_be_edited(self):
        pyramid, obstacles = several_levels_world()
        bits = PyramidBitmap.from_obstacles(pyramid, obstacles).to_bitstring()
        with pytest.raises(ValueError, match="decoded"):
            decode_bitstring(pyramid, bits).edit(obstacles)


class TestShrunkFailures:
    """Counterexamples this suite found, kept as fixtures."""

    def test_alarm_abutting_the_base_does_not_reach_the_last_column(self):
        """777.7 * 3 / 3 != 777.7: with per-level ratio edges the last
        level-1 column overhung the base by an ulp, so an alarm starting
        exactly on the base's right edge zeroed it in the flat oracle
        but not in a builder that prunes by parent.  Cell edges are now
        canonical across levels (``Pyramid.cell_rect``)."""
        pyramid, obstacles = abutting_world()
        base = pyramid.base
        bitmap = assert_matches_oracle(pyramid, obstacles,
                                       edge_points(pyramid))
        assert bitmap.to_bitstring() == "0111011"
        for level, (cols, rows) in enumerate(pyramid.level_dims):
            assert _x_edge(pyramid, level, cols) == base.max_x
            assert _y_edge(pyramid, level, rows) == base.max_y


class TestFloatInconsistentLocates:
    """Coordinates within an ulp of an edge where per-level arithmetic
    (``int(unit * cols)``) names a cell at level L + 1 that is not a
    child of the one it names at level L.  The probe walk bisects the
    edge lists instead: at every level it must locate the cell whose
    half-open rectangle holds the point, and probe like the oracle."""

    HEIGHT = 7

    def _inconsistent_units(self):
        """Unit coordinates whose fan-3 arithmetic chain is not a chain."""
        found = []
        for level in range(1, self.HEIGHT):
            cols = 3 ** level
            for k in range(1, cols):
                centre = k / cols
                for unit in (math.nextafter(centre, 0.0), centre,
                             math.nextafter(centre, 1.0)):
                    chain = [int(unit * 3 ** depth)
                             for depth in range(self.HEIGHT + 1)]
                    if any(chain[depth] // 3 != chain[depth - 1]
                           for depth in range(1, self.HEIGHT + 1)):
                        found.append((unit, level, k))
        return found

    def test_probe_equals_the_oracle_where_the_chain_breaks(self):
        units = self._inconsistent_units()
        assert len(units) >= 20  # the premise: such coordinates exist
        pyramid = Pyramid(BASES[2], 3, 3, self.HEIGHT)
        checked = 0
        for unit, level, k in units[::7]:
            cols = 3 ** level
            edge = k / cols
            # One alarm ending on the edge, one starting a cell later:
            # the cells either side of the edge get different bits.
            obstacles = [Rect(edge - 2 / cols, 0.4, edge, 0.6),
                         Rect(edge + 1 / cols, 0.45, edge + 2 / cols, 0.55),
                         Rect(edge, 0.0, edge + 1 / cols, 0.1)]
            points = [Point(unit, y) for y in (0.05, 0.5, unit, 0.95)]
            points += [Point(y, unit) for y in (0.05, 0.5, 0.95)]
            assert_matches_oracle(pyramid, obstacles, points)
            for point in points:
                for depth in range(self.HEIGHT + 1):
                    assert walked_cell(pyramid, point, depth) \
                        == locate(pyramid, point, depth), (point, depth)
            checked += 1
        assert checked >= 3


# ----------------------------------------------------------------------
# Every build of a BENCH replay
# ----------------------------------------------------------------------
#: Tier-1 compares every this-many-th build; REPRO_DEEP=1 every one.
REPLAY_STRIDE = 8


@pytest.fixture
def compared_builds(monkeypatch):
    """Hold the run's builds and edits to the definition as they happen.

    Every bitmap a policy serves comes out of :meth:`PBSRComputer.compute`:
    a build, or — with ``base`` — the cell's shared bitmap edited by
    adding a subscriber's own alarms, held to the definition over the
    base's obstacles and those.  Each kind is compared at the stride.
    """
    shipped = PBSRComputer.compute
    stride = examples(REPLAY_STRIDE, 1)
    counts = {"builds": 0, "compared": 0, "edits": 0, "edits_compared": 0}

    def compute(self, cell, obstacles, base=None):
        edit = base is not None
        made = counts["edits"] if edit else counts["builds"] - counts["edits"]
        before = base.to_bitstring() if edit else None
        bitmap = shipped(self, cell, obstacles, base)
        if made % stride == 0:
            carved = list(base._obstacles) if edit else []
            assert_equals_definition(bitmap, bitmap.pyramid,
                                     carved + list(obstacles))
            counts["compared"] += 1
            if edit:
                assert base.to_bitstring() == before
                counts["edits_compared"] += 1
        counts["builds"] += 1
        counts["edits"] += edit
        return bitmap

    monkeypatch.setattr(PBSRComputer, "compute", compute)
    return counts


@pytest.mark.parametrize("height", [5, 1], ids=["PBSR(h=5)", "GBSR"])
def test_bench_replay_builds_equal_the_definition(compared_builds, height):
    result = run_simulation(build_world(BENCH), make_pbsr_strategy(height))
    assert result.accuracy.perfect
    assert compared_builds["builds"] > 300
    assert (compared_builds["compared"]
            >= compared_builds["builds"] // REPLAY_STRIDE)
    assert compared_builds["edits"] > 100
    assert (compared_builds["edits_compared"]
            >= compared_builds["edits"] // REPLAY_STRIDE)


# ----------------------------------------------------------------------
# The suite's own test: seeded slips in the shipped kernel
# ----------------------------------------------------------------------
#: Corpus worlds: pyramids up to this height, and no more leaf cells
#: than this for the oracle to enumerate.
CORPUS_HEIGHT = 5
CORPUS_LEAF_BUDGET = 4000
CORPUS_SIZE = 300


@functools.lru_cache(maxsize=None)
def corpus():
    """A fixed draw of worlds with the definition's levels and coverage."""
    rng = random.Random(25)
    drawn = [abutting_world(), several_levels_world()]
    drawn += [(Pyramid(base, 3, 2, 3), [base.expanded(1.0)])
              for base in BASES]
    while len(drawn) < CORPUS_SIZE:
        pyramid = Pyramid(rng.choice(BASES), rng.randint(2, 3),
                          rng.randint(2, 3), rng.randint(1, CORPUS_HEIGHT))
        obstacles = draw_obstacles(rng, pyramid)
        if _oracle_leaf_cells(pyramid, obstacles) <= CORPUS_LEAF_BUDGET:
            drawn.append((pyramid, obstacles))
    rows = []
    for pyramid, obstacles in drawn:
        oracle, _ = build_pyramid_bitmap(pyramid, obstacles)
        rows.append((pyramid, obstacles, stored_levels(oracle, obstacles),
                     oracle.coverage()))
    return rows


def assert_corpus_equals_definition(bitmap_class):
    """Every corpus world built, then built from alternate obstacles and
    edited by adding the others, equals the definition."""
    for pyramid, obstacles, levels, coverage in corpus():
        bitmap = bitmap_class.from_obstacles(pyramid, obstacles)
        assert bitmap._levels == levels, (pyramid.base, obstacles)
        assert math.isclose(bitmap.coverage(), coverage,
                            rel_tol=1e-12, abs_tol=0.0)
    for pyramid, obstacles, levels, coverage in corpus():
        base = bitmap_class.from_obstacles(pyramid, obstacles[::2])
        bitmap = base.edit(obstacles[1::2])
        assert bitmap._levels == levels, (pyramid.base, obstacles)
        assert math.isclose(bitmap.coverage(), coverage,
                            rel_tol=1e-12, abs_tol=0.0)


def test_shipped_kernel_passes_the_corpus():
    assert_corpus_equals_definition(PyramidBitmap)


#: ``(what slipped, shipped source, mutated source, sites)``; each site
#: is in ``saferegion/bitmap.py``.  The last three are slips in the
#: edit's copying, which only the corpus's edits reach.
MUTATIONS = [
    ("bisect_left for bisect_right on the first intersecting column",
     "c0 = bisect_right(xs, min_x, 1) - 1",
     "c0 = bisect_left(xs, min_x, 1) - 1", 1),
    ("covered range one cell too wide",
     "c1 = bisect_right(xs, max_x) - 2", "c1 = bisect_right(xs, max_x) - 1",
     1),
    ("COVERED allowed on the leaf level",
     "leaf = level == height", "leaf = False", 1),
    ("block rows emitted bottom-first",
     "range(row0 + fan_rows - 1, row0 - 1, -1)",
     "range(row0, row0 + fan_rows)", 2),
    ("edges recomputed in ratio form at every level",
     "xs = pyramid.x_edges[level]\n",
     "xs = [left + (right - left) * k / cols for k in range(cols + 1)]\n",
     1),
    ("copy run shifted by one block",
     "cells += base_cells[first * fanout:last * fanout]",
     "cells += base_cells[first * fanout + fanout:last * fanout + fanout]",
     1),
    ("child tested for an added box at its parent's column",
     "if touched[row] >> col & 1:", "if touched[row] >> col0 & 1:", 1),
    ("copied child's block counted from its row, not its parent's block",
     "base_cells.count(SPLIT, start, slot + offset)",
     "base_cells.count(SPLIT, slot, slot + offset)", 1),
]


def mutant_bitmap(shipped, mutated, count):
    """``PyramidBitmap`` from its module's source, edited and re-run."""
    module = importlib.import_module(PyramidBitmap.__module__)
    source = inspect.getsource(module)
    assert source.count(shipped) == count, "the mutation site moved"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__dict__.update(__package__=module.__package__)
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(shipped, mutated), module.__file__,
                     "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant.PyramidBitmap


@pytest.mark.parametrize("what,shipped,mutated,count", MUTATIONS,
                         ids=[row[0] for row in MUTATIONS])
def test_seeded_mutation_is_caught(what, shipped, mutated, count):
    mutant = mutant_bitmap(shipped, mutated, count)
    with pytest.raises(AssertionError):
        assert_corpus_equals_definition(mutant)
