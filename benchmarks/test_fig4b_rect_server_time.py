"""E2 / Fig. 4(b): server processing time split vs grid cell size.

Reports alarm-processing time, the R*-tree lookup each safe region
starts from, the rest of the safe-region computation, and the total for
the weighted (y=1, z=32) rectangular approach across the cell size
sweep.  Every column is read from the telemetry registry's stage
histograms (``ServerTime``).

Shape checks (the paper's claims):
* alarm-processing time falls from the smallest cells toward the paper's
  optimum ("alarm processing costs decrease due to the smaller number of
  location messages");
* safe-region computation time rises with the cell size ("safe region
  computation costs increase ... due to larger number of intersecting
  alarms");
* the total has no minimum at the largest cell — it is minimized at an
  interior or small cell size.  (The paper's minimum sits at 2.5 km^2;
  the exact location depends on the implementation's per-event cost
  ratio and lands smaller in ours — see EXPERIMENTS.md.)
"""

from repro.experiments import BENCH, figure4b

from .conftest import print_table

CELL_SIZES = (0.4, 0.625, 1.11, 2.5, 10.0)


def test_fig4b_rect_server_time(benchmark):
    table = benchmark.pedantic(figure4b, args=(BENCH, CELL_SIZES, 32),
                               rounds=1, iterations=1)
    print_table(table)

    alarm = [float(v) for v in table.column("alarm proc (s)")]
    lookup = [float(v) for v in table.column("index lookup (s)")]
    saferegion = [float(v) for v in table.column("safe region (s)")]
    total = [float(v) for v in table.column("total (s)")]

    # alarm processing falls toward the paper's optimal cell size
    # (generous tolerance: these are wall-clock measurements)
    assert alarm[3] < alarm[0] * 1.15
    # safe-region computation grows with the cell size and dominates at
    # the largest cells
    assert saferegion[-1] > saferegion[0]
    assert saferegion[-1] > alarm[-1]
    # the total is not minimized at the largest cell
    assert min(total) < total[-1]
    # totals are consistent with their components (table formatting
    # rounds to ~3 significant digits)
    for a, x, s, t in zip(alarm, lookup, saferegion, total):
        assert x > 0
        assert abs(t - (a + x + s)) < 5e-3
