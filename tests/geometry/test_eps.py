"""Epsilon comparison helpers and the RL002 migration sites.

One regression test per float-comparison site the linter audit flagged
(see docs/STATIC_ANALYSIS.md): sites migrated to ``feq``/``fzero`` must
tolerate sub-epsilon noise, and sites that kept exact comparison — now
spelled ``feq_exact``/``fzero_exact``, the only exact spelling RL002
accepts — must preserve their bit-exact semantics.  The motion-model
wrap cases below are exactly what an epsilon test would have broken.
"""

import math

import pytest

from repro.geometry import EPS, Point, Rect, RectilinearRegion, feq, fzero
from repro.mobility import SteadyMotionModel, UniformMotionModel
from repro.roadnet import RoadClass, RoadNetwork
from repro.saferegion import MWPSRComputer


class TestHelpers:
    def test_feq_within_epsilon(self):
        assert feq(1.0, 1.0 + EPS / 2)
        assert feq(0.1 + 0.2, 0.3)  # the classic representation error

    def test_feq_beyond_epsilon(self):
        assert not feq(1.0, 1.0 + 10 * EPS)

    def test_feq_custom_epsilon(self):
        assert feq(1.0, 1.5, eps=0.6)
        assert not feq(1.0, 1.5, eps=0.4)

    def test_fzero(self):
        assert fzero(0.0)
        assert fzero(-EPS / 2)
        assert not fzero(10 * EPS)

    def test_exactly_eps_is_equal_and_one_ulp_beyond_is_not(self):
        beyond = math.nextafter(EPS, 1.0)
        assert feq(EPS, 0.0) and feq(-EPS, 0.0)
        assert not feq(beyond, 0.0)
        assert fzero(EPS) and fzero(-EPS)
        assert not fzero(beyond)


class TestRectDegenerate:
    """rect.py keeps exact-zero comparison (via fzero_exact)."""

    def test_point_rect_is_degenerate(self):
        assert Rect.point_rect(Point(3.0, 4.0)).is_degenerate()

    def test_epsilon_sliver_is_not_degenerate(self):
        # A sub-epsilon but nonzero extent is a real (tiny) rectangle:
        # degenerate rects only arise from bit-identical coordinates.
        sliver = Rect(0.0, 0.0, EPS / 10, 1.0)
        assert not sliver.is_degenerate()


class TestPolygonCoverage:
    """polygon.py coverage_of divides by area behind an fzero guard."""

    def test_zero_area_container_yields_zero_coverage(self):
        region = RectilinearRegion([Rect(0.0, 0.0, 10.0, 10.0)])
        degenerate = Rect.point_rect(Point(5.0, 5.0))
        assert region.coverage_of(degenerate) == 0.0

    def test_sub_epsilon_container_yields_zero_coverage(self):
        # Migration hardening: a container whose area is nonzero but
        # below tolerance must not produce a nonsense ratio.
        region = RectilinearRegion([Rect(0.0, 0.0, 10.0, 10.0)])
        sliver = Rect(5.0, 5.0, 5.0 + 1e-12, 5.0 + 1e-12)
        assert region.coverage_of(sliver) == 0.0

    def test_regular_coverage_unaffected(self):
        region = RectilinearRegion([Rect(0.0, 0.0, 5.0, 10.0)])
        assert region.coverage_of(Rect(0.0, 0.0, 10.0, 10.0)) == (
            pytest.approx(0.5))


class TestMotionSectorMass:
    """motion.py keeps exact endpoint comparison (via feq_exact).

    The CCW sector convention makes the endpoints' *bit-exact* relation
    semantically load-bearing: equal endpoints are an empty sector,
    while ``end`` infinitesimally below ``start`` wraps the full circle.
    An epsilon comparison collapses the second case onto the first,
    turning a mass of ~1 into 0 — a property test caught exactly that.
    """

    def test_steady_equal_endpoints_empty(self):
        model = SteadyMotionModel(1.0, 8)
        assert model.sector_mass(0.7, 0.7) == 0.0

    def test_steady_sub_epsilon_wrap_is_full_circle(self):
        model = SteadyMotionModel(1.0, 8)
        # end sits 2e-278 *below* start: the CCW sector is (almost)
        # the whole circle, so the mass must be ~1, not 0.
        assert model.sector_mass(2e-278, 0.0) == pytest.approx(1.0)

    def test_uniform_equal_endpoints_empty(self):
        assert UniformMotionModel().sector_mass(-1.2, -1.2) == 0.0

    def test_uniform_exact_two_pi_wrap_is_full_circle(self):
        model = UniformMotionModel()
        two_pi = 2.0 * math.pi
        assert model.sector_mass(0.5, 0.5 + two_pi) == pytest.approx(1.0)

    def test_uniform_tiny_sector_stays_tiny(self):
        # A genuinely tiny sector must not be promoted to a full wrap.
        mass = UniformMotionModel().sector_mass(1.0, 1.0 + 1e-9)
        assert 0.0 <= mass < 1e-6


class TestRoadnetZeroLengthEdge:
    """roadnet/graph.py rejects edges via fzero, not exact zero."""

    def test_coincident_nodes_rejected(self):
        network = RoadNetwork()
        a = network.add_node(Point(10.0, 10.0))
        b = network.add_node(Point(10.0, 10.0))
        with pytest.raises(ValueError, match="zero-length"):
            network.add_edge(a, b, RoadClass.LOCAL)

    def test_sub_epsilon_edge_rejected(self):
        # Hardening from the migration: a sub-epsilon edge would make
        # per-meter travel times explode; fzero now rejects it too.
        network = RoadNetwork()
        a = network.add_node(Point(10.0, 10.0))
        b = network.add_node(Point(10.0 + 1e-11, 10.0))
        with pytest.raises(ValueError, match="zero-length"):
            network.add_edge(a, b, RoadClass.LOCAL)

    def test_normal_edge_accepted(self):
        network = RoadNetwork()
        a = network.add_node(Point(0.0, 0.0))
        b = network.add_node(Point(100.0, 0.0))
        edge = network.add_edge(a, b, RoadClass.LOCAL)
        assert edge.length == pytest.approx(100.0)


class TestMwpsrDegenerateSide:
    """mwpsr.py skips perimeter sides no longer than EPS."""

    def test_degenerate_rect_has_zero_weighted_perimeter(self):
        computer = MWPSRComputer()
        degenerate = Rect.point_rect(Point(5.0, 5.0))
        assert computer._weighted_perimeter(
            degenerate, Point(5.0, 5.0), 0.0) == 0.0

    def test_sub_epsilon_sides_skipped(self):
        computer = MWPSRComputer()
        sliver = Rect(5.0, 5.0, 5.0 + 1e-12, 5.0 + 1e-12)
        assert computer._weighted_perimeter(
            sliver, Point(5.0, 5.0), 0.0) == 0.0

    def test_regular_perimeter_positive(self):
        computer = MWPSRComputer()
        rect = Rect(0.0, 0.0, 100.0, 100.0)
        assert computer._weighted_perimeter(
            rect, Point(50.0, 50.0), 0.0) > 0.0
