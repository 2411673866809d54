"""Ablation A1: greedy vs exhaustive MWPSR selection (DESIGN.md #1).

The paper motivates its greedy Step 4 by the quartic cost of enumerating
every component-rectangle combination.  This ablation measures what the
greedy gives up: messages sent (residence quality) and server time, for
the refined greedy, the unrefined greedy, and the exhaustive optimum.
"""

from repro.experiments import BENCH, Table, build_world, timed_run
from repro.mobility import SteadyMotionModel
from repro.saferegion import MWPSRComputer
from repro.strategies import RectangularSafeRegionStrategy

from .conftest import print_table

VARIANTS = (
    ("greedy (no refinement)", dict(auto_threshold=0, refine_rounds=0)),
    ("greedy + refinement", dict(auto_threshold=0, refine_rounds=2)),
    ("exhaustive (quartic)", dict(exhaustive=True)),
    ("adaptive (default)", dict()),
)


def _sweep():
    world = build_world(BENCH)
    results = []
    for name, kwargs in VARIANTS:
        computer = MWPSRComputer(SteadyMotionModel(1, 32), **kwargs)
        strategy = RectangularSafeRegionStrategy(computer, name=name)
        results.append((name, *timed_run(world, strategy)))
    return results


def test_ablation_mwpsr_selection(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = Table("Ablation: MWPSR selection strategy",
                  ["variant", "uplink msgs", "fix fraction",
                   "safe-region time (s)", "accuracy"])
    for name, result, server in results:
        table.add_row(name, result.metrics.uplink_messages,
                      result.message_fraction,
                      server.index_lookup_s + server.saferegion_s,
                      result.accuracy.recall)
    print_table(table)

    by_name = {name: result for name, result, _ in results}
    unrefined = by_name["greedy (no refinement)"].metrics.uplink_messages
    refined = by_name["greedy + refinement"].metrics.uplink_messages
    exhaustive = by_name["exhaustive (quartic)"].metrics.uplink_messages
    adaptive = by_name["adaptive (default)"].metrics.uplink_messages

    # every variant stays correct
    assert all(result.accuracy.perfect for _, result, _ in results)
    # refinement recovers most of the greedy's loss; the optimum leads
    assert refined < unrefined
    assert exhaustive <= refined
    # the adaptive default matches the optimum at these alarm densities
    # (every cell's combination count fits under the auto threshold)
    assert adaptive <= refined
