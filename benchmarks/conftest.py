"""Benchmark configuration.

Every benchmark reproduces one figure of the paper's evaluation on the
BENCH workload (see ``repro.experiments.configs``), prints the resulting
table — the same rows/series the paper's figure reports — and asserts
the figure's qualitative shape.  ``pytest-benchmark`` timings measure
the end-to-end harness cost.

Run with::

    pytest benchmarks/ --benchmark-only

Saved benchmark JSON (``--benchmark-json`` / ``--benchmark-autosave``)
embeds a run manifest — the BENCH config, its seeds, the canonical
config hash and the git commit — so a stored ``BENCH_*.json`` can
always be traced back to the exact inputs that produced it.
"""

from dataclasses import asdict

import pytest


def print_table(table):
    """Print a figure table, visibly separated in benchmark output."""
    print()
    print(str(table))


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp benchmark JSON output with the run's provenance manifest."""
    from repro.experiments import BENCH
    from repro.telemetry import RunManifest

    output_json["run_manifest"] = RunManifest.collect(
        strategy="benchmark-suite", config=asdict(BENCH)).to_dict()


@pytest.fixture(scope="session")
def warm_bench_world():
    """The BENCH world with its ground truth, built once for the
    benchmarks that time a pass over it."""
    from repro.experiments import BENCH, build_world

    world = build_world(BENCH)
    world.ground_truth()
    return world
