"""The package is pure standard library: it imports and runs without numpy.

One subprocess (its own interpreter, so nothing pytest or hypothesis
imported leaks in) blocks ``numpy`` — ``sys.modules["numpy"] = None``
makes every ``import numpy`` raise — then imports every module under
``repro``, replays the TINY world through every strategy and runs the
CLI's sanitized ``simulate`` through ``python -m repro``'s own entry.
"""

import pathlib
import subprocess
import sys

import repro

SRC_DIR = pathlib.Path(repro.__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, %r)

import importlib
import pkgutil
import runpy

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # the entry point: run below
        importlib.import_module(info.name)

from repro.engine import run_simulation
from repro.experiments import (TINY, build_world, make_mwpsr_strategy,
                               make_pbsr_strategy)
from repro.strategies import (AdaptiveRectangularStrategy, OptimalStrategy,
                              PeriodicStrategy, SafePeriodStrategy)

world = build_world(TINY)
speed = world.max_speed()
for strategy in (PeriodicStrategy(), SafePeriodStrategy(speed),
                 make_mwpsr_strategy(), AdaptiveRectangularStrategy(speed),
                 make_pbsr_strategy(1), make_pbsr_strategy(5),
                 OptimalStrategy()):
    result = run_simulation(world, strategy)
    assert result.accuracy.perfect, (strategy.name, result.accuracy)

sys.argv = ["repro", "simulate", "--strategy", "mwpsr", "--workload",
            "tiny", "--sanitize"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit:
    assert exit.code == 0, exit.code
"""


def test_imports_and_runs_with_numpy_blocked():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT % str(SRC_DIR)],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert "missed 0, spurious 0, late 0" in completed.stdout
