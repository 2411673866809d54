"""Smoke + shape tests for the per-figure harnesses on the TINY workload.

Each figure function must run end to end and exhibit the qualitative
shape the paper reports (where the tiny workload is large enough to show
it; magnitude assertions live in the benchmarks against the BENCH
workload).
"""

import math

import pytest

from repro.experiments import (TINY, figure1b, figure4a, figure4b, figure5a,
                               figure5b, figure6a, figure6b, figure6c,
                               figure6d, figures, make_mwpsr_strategy,
                               make_pbsr_strategy)

CELL_SIZES = (0.4, 1.11)
PUBLICS = (0.05, 0.20)
HEIGHTS = (1, 3)


class TestFigure1b:
    def test_pdf_table(self):
        table = figure1b(zs=(2, 8), steps=4)
        assert table.headers == ["phi/pi", "z=2", "z=8"]
        assert len(table.rows) == 9
        # symmetric: first and last rows carry the same densities
        assert table.rows[0][1:] == table.rows[-1][1:]
        # peak at phi=0 (middle row)
        middle = float(table.rows[4][1])
        assert middle == pytest.approx(1.5 / (2 * math.pi), abs=1e-3)


class TestFigure4:
    def test_messages_table(self):
        table = figure4a(TINY, cell_sizes=CELL_SIZES, zs=(8,))
        assert len(table.rows) == len(CELL_SIZES)
        non_weighted = [int(v) for v in table.column("non-weighted")]
        weighted = [int(v) for v in table.column("y=1,z=8")]
        assert all(v > 0 for v in weighted)
        assert all(v > 0 for v in non_weighted)
        # on any workload the rectangular approaches keep the uplink
        # fraction far below periodic reporting (the monotone cell-size
        # trend is asserted at BENCH scale in the benchmark suite)
        assert float(table.rows[-1][-1]) < 0.5

    def test_server_time_table(self):
        table = figure4b(TINY, cell_sizes=CELL_SIZES, z=8)
        assert table.headers[1:] == ["alarm proc (s)", "index lookup (s)",
                                     "safe region (s)", "total (s)"]
        for row in table.rows:
            alarm_s, lookup_s, sr_s, total_s = (float(v) for v in row[1:])
            assert lookup_s > 0
            # the table renders ~3 significant digits
            assert total_s == pytest.approx(alarm_s + lookup_s + sr_s,
                                            abs=5e-3)


class TestFigure5:
    def test_messages_drop_with_height(self):
        table = figure5a(TINY, heights=HEIGHTS, publics=PUBLICS)
        first_public = [int(row[1]) for row in table.rows]
        assert first_public[0] > first_public[-1]

    def test_energy_rises_with_height(self):
        table = figure5b(TINY, heights=HEIGHTS, publics=PUBLICS)
        dense = [float(row[2]) for row in table.rows]
        assert dense[-1] >= dense[0]


class TestFigure6:
    def test_messages_orderings(self):
        table = figure6a(TINY, publics=PUBLICS)
        for row in table.rows:
            mwpsr, pbsr, sp, opt, prd = (int(v) for v in row[1:])
            assert opt <= pbsr
            assert prd >= sp > mwpsr
            assert prd >= pbsr

    def test_bandwidth_opt_dominates(self):
        table = figure6b(TINY, publics=(0.20,))
        (row,) = table.rows
        mwpsr, pbsr, opt = (float(v) for v in row[1:])
        assert opt > mwpsr
        assert opt > 0

    def test_energy_opt_dominates(self):
        table = figure6c(TINY, publics=(0.20,))
        (row,) = table.rows
        mwpsr, pbsr, opt = (float(v) for v in row[1:])
        assert opt > pbsr > mwpsr

    def test_server_time_by_approach(self):
        table = figure6d(TINY, publics=(0.20,))
        assert table.headers[2:] == ["alarm proc", "index lookup",
                                     "safe region", "total"]
        by_name = {row[1]: tuple(float(v) for v in row[2:])
                   for row in table.rows}
        assert set(by_name) == {"PRD", "MWPSR(y=1,z=32)", "PBSR(h=5)",
                                "SP", "OPT"}
        # periodic has by far the largest alarm-processing bill and no
        # safe-region computation (nor index lookup for one) at all
        prd_alarm, prd_lookup, prd_sr, _ = by_name["PRD"]
        assert prd_lookup == prd_sr == 0.0
        assert prd_alarm > by_name["MWPSR(y=1,z=32)"][0]
        assert prd_alarm > by_name["PBSR(h=5)"][0]
        # every other approach starts its safe region from an index lookup
        for name, (_, lookup_s, _, _) in by_name.items():
            if name != "PRD":
                assert lookup_s > 0, name
        for alarm_s, lookup_s, sr_s, total_s in by_name.values():
            assert total_s == pytest.approx(alarm_s + lookup_s + sr_s,
                                            abs=5e-3)


class TestWorldBuilds:
    """A figure holds its worlds: built on the first missed run, at most
    once a config, regridded across a cell sweep."""

    @pytest.fixture
    def builds(self, monkeypatch):
        monkeypatch.setattr(figures, "_RESULT_CACHE", {})
        built = []
        build = figures.build_world

        def counted(*args):
            built.append(args)
            return build(*args)
        monkeypatch.setattr(figures, "build_world", counted)
        return built

    def test_a_cell_sweep_builds_one_world(self, builds):
        figure4a(TINY, cell_sizes=CELL_SIZES, zs=(8,))
        assert builds == [(TINY, CELL_SIZES[0])]

    def test_a_public_sweep_builds_one_world_a_share(self, builds):
        figure5a(TINY, heights=HEIGHTS, publics=PUBLICS)
        assert builds == [(TINY.with_public_fraction(public),
                           figures.DEFAULT_CELL_AREA_KM2)
                          for public in PUBLICS]

    def test_cached_runs_build_no_world(self, builds):
        figure6a(TINY, publics=PUBLICS)
        del builds[:]
        figure6d(TINY, publics=PUBLICS)
        figure5b(TINY, heights=(5,), publics=PUBLICS)
        assert builds == []


class TestStrategyFactories:
    def test_mwpsr_names(self):
        assert make_mwpsr_strategy().name == "MWPSR(y=1,z=32)"
        assert make_mwpsr_strategy(weighted=False).name == \
            "MPSR(non-weighted)"

    def test_pbsr_names(self):
        assert make_pbsr_strategy(1).name == "GBSR"
        assert make_pbsr_strategy(5).name == "PBSR(h=5)"
