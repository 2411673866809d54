"""Tests for the analysis utilities."""

import pytest

from repro.alarms import AlarmScope
from repro.experiments import (TINY, DistributionSummary, build_world,
                               coverage_size_tradeoff,
                               make_mwpsr_strategy, residence_statistics,
                               safe_region_statistics, workload_profile)
from repro.experiments.report import Table
from repro.index import CellId


@pytest.fixture(scope="module")
def world():
    return build_world(TINY)


class TestDistributionSummary:
    def test_basic(self):
        summary = DistributionSummary.of([3.0, 1.0, 2.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.median == 3.0

    def test_quantiles_ordered(self):
        summary = DistributionSummary.of(list(range(100)))
        assert summary.minimum <= summary.p10 <= summary.median
        assert summary.median <= summary.p90 <= summary.maximum

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DistributionSummary.of([])

    def test_single_value(self):
        summary = DistributionSummary.of([7.0])
        assert summary.minimum == summary.maximum == summary.mean == 7.0


class TestSafeRegionStatistics:
    def test_areas_bounded_by_cell(self, world):
        summary = safe_region_statistics(world, sample_count=60)
        cell_km2 = world.grid.actual_cell_area_km2
        assert 0.0 <= summary.minimum
        assert summary.maximum <= cell_km2 + 1e-9
        assert summary.count == 60

    def test_deterministic(self, world):
        first = safe_region_statistics(world, sample_count=30, seed=9)
        second = safe_region_statistics(world, sample_count=30, seed=9)
        assert first == second


class TestCoverageSizeTradeoff:
    def test_proposition3_shape(self, world):
        """Coverage grows with height, and so does the bitmap size —
        the trade-off of Proposition 3."""
        table = coverage_size_tradeoff(world, heights=(1, 3, 5),
                                       sample_count=20)
        coverages = [float(row[1]) for row in table.rows]
        bits = [float(row[2]) for row in table.rows]
        assert coverages == sorted(coverages)
        assert bits == sorted(bits)
        assert coverages[-1] > coverages[0]
        assert bits[-1] > bits[0]

    def test_coverage_in_unit_range(self, world):
        table = coverage_size_tradeoff(world, heights=(2,), sample_count=10)
        coverage = float(table.rows[0][1])
        assert 0.0 <= coverage <= 1.0


class TestResidenceStatistics:
    def test_positive_residences(self, world):
        summary = residence_statistics(world, make_mwpsr_strategy(),
                                       max_vehicles=4)
        assert summary.minimum >= world.traces.sample_interval
        assert summary.maximum <= world.duration_s

    def test_deeper_pyramids_hold_longer(self, world):
        from repro.experiments import make_pbsr_strategy
        shallow = residence_statistics(world, make_pbsr_strategy(1),
                                       max_vehicles=6)
        deep = residence_statistics(world, make_pbsr_strategy(5),
                                    max_vehicles=6)
        assert deep.mean > shallow.mean

    def test_periodic_client_contacts_every_fix(self, world):
        # One advance call reports a PRD client's whole window; each of
        # those reports is a contact, so every residence is one sample.
        from repro.strategies.periodic import PeriodicStrategy
        summary = residence_statistics(world, PeriodicStrategy(),
                                       max_vehicles=3)
        interval = world.traces.sample_interval
        assert summary.minimum == summary.maximum == interval
        assert summary.count == sum(
            len(world.traces[vehicle_id]) - 1
            for vehicle_id in world.traces.vehicle_ids()[:3])


def brute_force_profile(world, alarms):
    """The profile row by definition, formatted as the table formats
    it: per cell, the ``alarms`` interior-overlapping it.  On TINY's nine
    cells one alarm more or less anywhere moves the mean by 0.11, which
    the row's two decimals show."""
    counts = [float(sum(1 for alarm in alarms
                        if alarm.region.interior_intersects(
                            world.grid.cell_rect(CellId(col, row)))))
              for col in range(world.grid.columns)
              for row in range(world.grid.rows)]
    summary = DistributionSummary.of(counts)
    table = Table("reference", ["cells", "mean", "p10", "median", "p90",
                                "max"])
    table.add_row(summary.count, summary.mean, summary.p10, summary.median,
                  summary.p90, summary.maximum)
    return table.rows[0]


class TestWorkloadProfile:
    def test_counts_cover_all_cells(self, world):
        table = workload_profile(world)
        (row,) = table.rows
        assert int(row[0]) == world.grid.cell_count
        assert float(row[1]) > 0  # TINY has alarms everywhere

    def test_counts_every_installed_alarm(self, world):
        (row,) = workload_profile(world).rows
        assert row == brute_force_profile(
            world, world.registry.all_alarms())

    def test_public_only_count_would_fail_the_pin(self, world):
        """The registry's tree holds the public alarms only; a profile
        read from it differs from the pinned one."""
        public = [alarm for alarm in world.registry.all_alarms()
                  if alarm.scope is AlarmScope.PUBLIC]
        assert brute_force_profile(world, public) != brute_force_profile(
            world, world.registry.all_alarms())
