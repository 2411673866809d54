"""Tests for the pyramid cell decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import Pyramid, PyramidCell
from ..saferegion.test_bitmap_probe_edges import walked_cell

BASE = Rect(0, 0, 900, 900)


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Pyramid(BASE, fan_cols=1, fan_rows=3, height=1)
        with pytest.raises(ValueError):
            Pyramid(BASE, height=0)
        with pytest.raises(ValueError):
            Pyramid(Rect(0, 0, 0, 10), height=1)

    def test_grid_dims(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=3)
        assert pyramid.grid_dims(0) == (1, 1)
        assert pyramid.grid_dims(1) == (3, 3)
        assert pyramid.grid_dims(3) == (27, 27)

    def test_level_out_of_range(self):
        pyramid = Pyramid(BASE, height=2)
        with pytest.raises(ValueError):
            pyramid.grid_dims(3)

    def test_fanout(self):
        assert Pyramid(BASE, fan_cols=3, fan_rows=2, height=1).fanout() == 6


class TestGeometry:
    def test_root_is_base(self):
        pyramid = Pyramid(BASE, height=2)
        assert pyramid.cell_rect(PyramidCell(0, 0, 0)) == BASE

    def test_children_tile_parent(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=2)
        parent = PyramidCell(1, 2, 1)
        children = list(pyramid.children(parent))
        assert len(children) == 9
        parent_rect = pyramid.cell_rect(parent)
        total = sum(pyramid.cell_rect(c).area for c in children)
        assert total == pytest.approx(parent_rect.area)
        for child in children:
            assert parent_rect.contains_rect(pyramid.cell_rect(child))

    def test_children_raster_order_top_row_first(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        children = list(pyramid.children(PyramidCell(0, 0, 0)))
        # top row has the largest row index at level 1
        assert [c.row for c in children] == [2, 2, 2, 1, 1, 1, 0, 0, 0]
        assert [c.col for c in children] == [0, 1, 2] * 3

    def test_parent_inverts_children(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=2)
        parent = PyramidCell(1, 1, 2)
        for child in pyramid.children(parent):
            assert pyramid.parent(child) == parent

    def test_root_has_no_parent(self):
        pyramid = Pyramid(BASE, height=1)
        with pytest.raises(ValueError):
            pyramid.parent(PyramidCell(0, 0, 0))

    def test_level_cells_count_and_order(self):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=2)
        cells = list(pyramid.level_cells(2))
        assert len(cells) == 81
        # raster: first cell is top-left of the level grid
        assert cells[0] == PyramidCell(2, 0, 8)


class TestLocate:
    """Point location is the bitmap's probe walk, which bisects
    :attr:`Pyramid.x_edges` / :attr:`Pyramid.y_edges` level by level."""

    @given(st.floats(min_value=0, max_value=899.99),
           st.floats(min_value=0, max_value=899.99),
           st.integers(min_value=0, max_value=3))
    def test_locate_consistent_with_rect(self, x, y, level):
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=3)
        p = Point(x, y)
        rect = pyramid.cell_rect(walked_cell(pyramid, p, level))
        assert rect.min_x <= x < rect.max_x and rect.min_y <= y < rect.max_y

    @given(st.floats(min_value=0, max_value=899.99),
           st.floats(min_value=0, max_value=899.99))
    def test_locate_nested(self, x, y):
        """The located cell at level L+1 is a child of the one at L."""
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=3)
        p = Point(x, y)
        for level in range(1, 4):
            child = walked_cell(pyramid, p, level)
            parent = walked_cell(pyramid, p, level - 1)
            assert pyramid.parent(child) == parent

    def test_boundary_points_clamp(self):
        """The base's top and right edges belong to its last cells."""
        pyramid = Pyramid(BASE, fan_cols=3, fan_rows=3, height=1)
        cell = walked_cell(pyramid, Point(900, 900), 1)
        assert cell == PyramidCell(1, 2, 2)
