"""Benchmark harness for the alarm index build.

``repro bench-hotpath`` drives :func:`repro.bench.hotpath.run_hotpath_bench`
and renders its rows as JSON; the committed baseline lives in
``BENCH_hotpath.json``.  Everything here is importable engine code
(RL007: no printing) and reads no clock other than
``time.perf_counter`` duration deltas (RL006's sanctioned form).
"""

from .hotpath import run_hotpath_bench

__all__ = ["run_hotpath_bench"]
