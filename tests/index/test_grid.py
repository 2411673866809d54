"""Tests for the uniform grid overlay."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import BENCH, PAPER, TINY
from repro.geometry import Point, Rect
from repro.index import CellId, GridOverlay

UNIVERSE = Rect(0, 0, 10000, 10000)


class TestConstruction:
    def test_cell_counts_snap_to_integer(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=2.5)
        assert grid.columns >= 1 and grid.rows >= 1
        assert grid.cell_count == grid.columns * grid.rows

    def test_actual_area_close_to_requested(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=2.5)
        assert grid.actual_cell_area_km2 == pytest.approx(2.5, rel=0.4)

    def test_huge_cell_gives_single_cell(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=100.0)
        assert grid.shape() == (1, 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GridOverlay(UNIVERSE, cell_area_km2=0)
        with pytest.raises(ValueError):
            GridOverlay(Rect(0, 0, 0, 10), cell_area_km2=1)


class TestLookup:
    def test_cell_of_origin(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
        assert grid.cell_of(Point(0, 0)) == CellId(0, 0)

    def test_cell_of_clamps_outside(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
        far = grid.cell_of(Point(99999, -5))
        assert far == CellId(grid.columns - 1, 0)

    def test_cell_rect_contains_its_points(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=2.5)
        p = Point(1234.5, 6789.0)
        assert grid.cell_rect_of_point(p).contains_point(p)

    def test_cell_rect_rejects_bad_cell(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=2.5)
        with pytest.raises(ValueError):
            grid.cell_rect(CellId(-1, 0))
        with pytest.raises(ValueError):
            grid.cell_rect(CellId(grid.columns, 0))

    @given(st.floats(min_value=0, max_value=9999.99),
           st.floats(min_value=0, max_value=9999.99))
    def test_every_point_maps_to_containing_cell(self, x, y):
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.11)
        p = Point(x, y)
        cell = grid.cell_of(p)
        assert 0 <= cell.col < grid.columns
        assert 0 <= cell.row < grid.rows
        assert grid.cell_rect(cell).contains_point(p)


class TestCellOfAgreesWithCellRect:
    """``cell_of`` and ``cell_rect`` name the same cell for a point one
    ulp either side of any interior edge.

    Regression: ``cell_of`` used to divide (``int((x - min_x) /
    cell_width)``) while ``cell_rect`` reports ratio-form edges.  At
    PAPER scale, 5.0 km^2 cells (14 columns), ``x = 27105.42857142857``
    sits one ulp below the 11|12 edge but the quotient rounds up to
    12.0, so ``cell_rect(cell_of(p))`` did not contain ``p`` and
    ``MWPSRComputer.compute`` raised "subscriber position outside its
    grid cell" mid-run.
    """

    #: Fig. 4's sweep plus the two sizes the figures and benches add.
    AREAS = (0.4, 0.625, 1.0, 1.11, 2.5, 5.0, 10.0)

    @staticmethod
    def _edge_points(edge):
        return (math.nextafter(edge, -math.inf), edge,
                math.nextafter(edge, math.inf))

    @pytest.mark.parametrize("config", [TINY, BENCH, PAPER],
                             ids=["tiny", "bench", "paper"])
    @pytest.mark.parametrize("area", AREAS)
    def test_every_interior_edge_plus_minus_one_ulp(self, config, area):
        side = config.universe_side_m
        universe = Rect(0.0, 0.0, side, side)
        grid = GridOverlay(universe, min(area, universe.area / 1e6))
        # columns == rows on a square universe; probe both axes anyway,
        # against a partner coordinate that is itself on an edge.
        for k in range(1, grid.columns):
            edge = universe.min_x + universe.width * k / grid.columns
            for value in self._edge_points(edge):
                for other in (side / 3.0, value):
                    for p in (Point(value, other), Point(other, value)):
                        cell = grid.cell_of(p)
                        assert grid.cell_rect(cell).contains_point(p), \
                            (p, cell)
                        # half-open: the edge itself opens the upper cell
                        expected = k if value >= edge else k - 1
                        index = cell.col if p.x == value else cell.row
                        assert index == expected, (p, cell)

    def test_the_reproduced_points(self):
        paper = GridOverlay(Rect(0, 0, PAPER.universe_side_m,
                                 PAPER.universe_side_m), 5.0)
        p = Point(27105.42857142857, 100.0)
        assert paper.columns == 14
        assert paper.cell_of(p) == CellId(11, 0)
        assert paper.cell_rect(paper.cell_of(p)).contains_point(p)
        tiny = GridOverlay(Rect(0, 0, TINY.universe_side_m,
                                TINY.universe_side_m), 0.4)
        p = Point(3333.333333333333, 100.0)
        assert tiny.cell_rect(tiny.cell_of(p)).contains_point(p)

    @given(st.floats(min_value=0, max_value=9999.99),
           st.floats(min_value=0, max_value=9999.99))
    def test_unchanged_away_from_edges(self, x, y):
        """More than a micrometre from every edge the plain quotient
        already names the cell, and that is what ``cell_of`` returns."""
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.11)
        for value, width in ((x, grid.cell_width), (y, grid.cell_height)):
            offset = math.fmod(value, width)
            if min(offset, width - offset) < 1e-6:
                return
        assert grid.cell_of(Point(x, y)) == CellId(
            int(x / grid.cell_width), int(y / grid.cell_height))


class TestCoverage:
    def test_cells_tile_universe(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=2.5)
        total = sum(grid.cell_rect(CellId(c, r)).area
                    for c in range(grid.columns) for r in range(grid.rows))
        assert total == pytest.approx(UNIVERSE.area)

    def test_cells_intersecting_rect(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
        query = Rect(100, 100, 2500, 1500)
        cells = list(grid.cells_intersecting(query))
        assert cells
        for cell in cells:
            assert grid.cell_rect(cell).intersects(query)
        # every cell that intersects must be reported
        for col in range(grid.columns):
            for row in range(grid.rows):
                cell = CellId(col, row)
                if grid.cell_rect(cell).interior_intersects(query):
                    assert cell in cells

    def test_cells_intersecting_outside_universe(self):
        grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
        assert list(grid.cells_intersecting(
            Rect(20000, 20000, 21000, 21000))) == []
