"""bench_e2e entry point.

One workload, as the benchmark contract runs it::

    python3 bench_e2e/run.py --workload replay_pbsr --seed 3 \\
        --seconds 8 --trace 0

builds the workload's world from the seed, measures for ``--seconds``,
checks every pass, prints each metric by name with its unit and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.

Without ``--workload`` it runs the whole suite — every workload,
``--runs`` seeds starting at ``--seed``, untraced and traced, each in a
fresh child interpreter — and writes the records with a manifest to
``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # A bare copy of the benchmark has nothing to measure.
    sys.exit("bench_e2e: %s holds no src/repro; run from a full checkout"
             % ROOT)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench_e2e.metrics import (END_TO_END, PER_LAYER, RUN_SECONDS,  # noqa: E402
                               WORKLOADS, unit_of)

#: Sockets and other run-time litter go here (ignored by git).
SCRATCH = Path(__file__).resolve().parent / ".tmp"
QUICK_SECONDS = 0.4


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict[str, Any]:
    """Run one workload in this process; the full record."""
    from bench_e2e.serve import run_serve
    from bench_e2e.workloads import run_replay

    if workload == "serve_prd":
        outcome = run_serve(seed, seconds, trace, quick, SCRATCH)
    else:
        outcome = run_replay(workload, seed, seconds, trace, quick)
    expected = [row[0] for row in (PER_LAYER if trace else END_TO_END)]
    if sorted(outcome.metrics) != sorted(expected):
        raise RuntimeError("workload %s produced metrics %r, expected %r"
                           % (workload, sorted(outcome.metrics),
                              sorted(expected)))
    for name in expected:
        if outcome.metrics[name] is None:
            outcome.warnings.append("metric %s is unavailable (null)" % name)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "profile": "quick" if quick else "full",
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: outcome.metrics[name] for name in expected},
        "warnings": outcome.warnings, "detail": outcome.detail,
    }


def contract_line(record: Dict[str, Any]) -> str:
    """The last line of stdout the benchmark contract asks for.

    The contract wants a number for every metric, so a metric whose
    wrap target is gone is written as 0 here (and as ``null``, with a
    warning, everywhere else).
    """
    metrics = {name: {"value": 0 if value is None else value,
                      "unit": unit_of(name)}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_record(record: Dict[str, Any]) -> None:
    """Every metric by name, with its unit, one per line."""
    print("# %s seed=%d trace=%d %s: attempted %d, failed %d"
          % (record["workload"], record["seed"], record["trace"],
             record["profile"], record["attempted"], record["failed"]))
    for name, value in record["metrics"].items():
        shown = "null" if value is None else "%.6g" % value
        print("%-34s %14s %s" % (name, shown, unit_of(name)))
    for warning in record["warnings"]:
        print("warning: %s" % warning, file=sys.stderr)


def manifest(seed: int, quick: bool) -> Dict[str, Any]:
    """Where and on what the suite ran (no wall-clock timestamp)."""
    from dataclasses import asdict

    import numpy

    from bench_e2e.worlds import world_config
    from repro.telemetry.manifest import RunManifest

    run_manifest = RunManifest.collect(
        strategy="bench_e2e", workers=1,
        config={"fleet": asdict(world_config("fleet", seed, quick)),
                "metro": asdict(world_config("metro", seed, quick))})
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_at_start": list(os.getloadavg()),
            "run_manifest": run_manifest.to_dict()}


def run_suite(seed: int, runs: int, seconds: float, quick: bool,
              workloads: List[str], traces: List[int],
              out: Optional[str]) -> int:
    """Every workload x seed x trace mode, one child interpreter each."""
    report: Dict[str, Any] = {"profile": "quick" if quick else "full",
                              "manifest": manifest(seed, quick),
                              "records": []}
    status = 0
    for run_seed in range(seed, seed + runs):
        for workload in workloads:
            for trace in traces:
                record_path = SCRATCH / ("record-%d.json" % os.getpid())
                command = [sys.executable, __file__, "--workload", workload,
                           "--seed", str(run_seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--record",
                           str(record_path)]
                if quick:
                    command.append("--quick")
                child = subprocess.run(command, stdout=subprocess.DEVNULL)
                if child.returncode != 0:
                    status = 1
                    print("FAILED: %s (exit %d)" % (" ".join(command[2:]),
                                                    child.returncode),
                          file=sys.stderr)
                if record_path.exists():
                    record = json.loads(record_path.read_text())
                    record_path.unlink()
                    print_record(record)
                    report["records"].append(record)
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True))
        print("wrote %s" % out)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default %d; "
                             "%.1f with --quick)" % (RUN_SECONDS,
                                                     QUICK_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end metrics, 1 per-layer metrics "
                             "(default 0; the suite runs both)")
    parser.add_argument("--quick", action="store_true",
                        help="TINY-sized smoke run; numbers mean nothing")
    parser.add_argument("--record", help="also write the full record here")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: seeds SEED..SEED+RUNS-1")
    parser.add_argument("--only", action="append", choices=sorted(WORKLOADS),
                        help="suite mode: restrict to these workloads")
    parser.add_argument("--out", help="suite mode: write all records here")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(RUN_SECONDS)
    SCRATCH.mkdir(exist_ok=True)

    if args.workload is None:
        return run_suite(args.seed, args.runs, seconds, args.quick,
                         args.only or list(WORKLOADS),
                         [0, 1] if args.trace is None else [args.trace],
                         args.out)
    record = run_one(args.workload, args.seed, seconds, bool(args.trace),
                     args.quick)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
