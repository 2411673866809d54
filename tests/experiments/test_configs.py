"""Tests for experiment configs, world construction and regridding."""

import pytest

from repro.alarms import AlarmScope
from repro.engine import simulation
from repro.experiments import (BENCH, PAPER, TINY,
                               build_world, scaled_cell_sizes)
from repro.geometry import Rect


class TestPresets:
    def test_paper_scale_matches_section_5(self):
        assert PAPER.vehicle_count == 10000
        assert PAPER.duration_s == 3600.0
        assert PAPER.alarm_count == 10000
        assert PAPER.public_fraction == pytest.approx(0.10)
        # ~1000 km^2
        assert (PAPER.universe_side_m / 1000.0) ** 2 == pytest.approx(
            1000.0, rel=0.01)

    def test_bench_preserves_paper_alarm_density(self):
        paper_density = PAPER.alarm_count / (PAPER.universe_side_m / 1e3) ** 2
        bench_density = BENCH.alarm_count / (BENCH.universe_side_m / 1e3) ** 2
        assert bench_density == pytest.approx(paper_density, rel=0.05)

    def test_with_public_fraction(self):
        varied = BENCH.with_public_fraction(0.2)
        assert varied.public_fraction == 0.2
        assert varied.alarm_count == BENCH.alarm_count
        assert varied != BENCH

    def test_scaled_cell_sizes_clip_to_universe(self):
        assert 10.0 in scaled_cell_sizes(PAPER)
        tiny_sizes = scaled_cell_sizes(TINY)
        assert all(size <= (TINY.universe_side_m / 1e3) ** 2
                   for size in tiny_sizes)
        assert 0.4 in tiny_sizes


class TestWorldConstruction:
    def test_build_world_shapes(self):
        world = build_world(TINY)
        assert len(world.traces) == TINY.vehicle_count
        assert len(world.registry) == TINY.alarm_count
        assert world.universe.width == TINY.universe_side_m

    def test_builds_share_no_state(self):
        """Every build is a fresh world: an alarm installed into one is
        not in the next."""
        first = build_world(TINY)
        first.registry.install(Rect(0.0, 0.0, 10.0, 10.0),
                               AlarmScope.PUBLIC, owner_id=0)
        second = build_world(TINY)
        assert second.registry is not first.registry
        assert len(first.registry) == TINY.alarm_count + 1
        assert len(second.registry) == TINY.alarm_count

    def test_regrid_is_a_new_world_over_another_grid(self):
        small = build_world(TINY, cell_area_km2=0.4)
        large = small.regrid(2.5)
        assert large is not small
        assert large.universe is small.universe
        assert large.grid.cell_count < small.grid.cell_count

    def test_regrid_shares_registry_and_traces(self):
        small = build_world(TINY, cell_area_km2=0.4)
        large = small.regrid(2.5)
        assert small.registry is large.registry
        assert small.traces is large.traces

    def test_regrid_shares_the_ground_truth(self, monkeypatch):
        sweeps = []
        sweep = simulation.compute_ground_truth

        def counted(*args):
            sweeps.append(args)
            return sweep(*args)
        monkeypatch.setattr(simulation, "compute_ground_truth", counted)
        small = build_world(TINY, cell_area_km2=0.4)
        large = small.regrid(2.5)
        assert small.ground_truth() is large.ground_truth()
        assert large.regrid(1.11).ground_truth() is small.ground_truth()
        assert len(sweeps) == 1

    def test_cell_size_clamped_to_universe(self):
        world = build_world(TINY, cell_area_km2=1e6)
        assert world.grid.cell_count == 1

    def test_regrid_equals_a_fresh_build(self):
        regridded = build_world(TINY).regrid(0.4)
        fresh = build_world(TINY, cell_area_km2=0.4)
        assert (regridded.grid.columns, regridded.grid.rows) \
            == (fresh.grid.columns, fresh.grid.rows)
        assert regridded.ground_truth() == fresh.ground_truth()

    def test_max_speed_positive(self):
        world = build_world(TINY)
        assert world.max_speed() > 0
