"""Compare two suite reports: ``python3 bench_e2e/compare.py A.json B.json``.

``A`` is the parent's set of runs, ``B`` the change's (or a second set
of the same commit, to check repeatability).  For every end-to-end
metric on every workload it prints both medians and quartiles, how much
worse ``B``'s median is as a share of ``A``'s, and a verdict against
the metric's bound from ``metrics.py``:

* ``regression`` — worse by more than the bound;
* ``unresolved`` — either side's quartile spread is wider than the
  bound, so "unchanged" cannot be claimed (unless every run of ``B``
  beats every run of ``A``, which reads ``better``);
* ``ok`` / ``better`` otherwise.

Per-layer counts that must repeat exactly (``protocol.*``) are compared
value by value for equal (workload, seed); a difference is a behaviour
change and is reported as a count, never as a speed-up.  Exit status:
0 clean, 1 on a regression, a failed operation or a changed invariant,
2 when a report cannot be used (``--quick`` profile, wrong shape).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Dict[str, Any]:
    """A suite report; quick-profile reports are refused."""
    try:
        report: Dict[str, Any] = json.loads(Path(path).read_text())
        records = report["records"]
        profile = report["profile"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit("compare: cannot use %s: %s" % (path, exc)) from exc
    if profile != "full" or any(r["profile"] != "full" for r in records):
        print("compare: %s is a --quick report; its numbers mean nothing"
              % path, file=sys.stderr)
        raise SystemExit(2)
    return report


def series(report: Dict[str, Any], trace: int) -> Dict[Key, List[float]]:
    """(workload, metric) -> the values of every run, in record order."""
    out: Dict[Key, List[float]] = {}
    for record in report["records"]:
        if record["trace"] != trace:
            continue
        for name, value in record["metrics"].items():
            if value is not None:
                out.setdefault((record["workload"], name), []).append(value)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """(share by which ``after``'s median is worse, verdict)."""
    median_before = quartiles(before)[1]
    median_after = quartiles(after)[1]
    change = (median_after - median_before) / median_before
    worse = change if better == "lower" else -change
    if worse > bound:
        return worse, "regression"
    if max(spread(before), spread(after)) > bound:
        if better == "lower":
            separated = max(after) < min(before)
        else:
            separated = min(after) > max(before)
        return worse, "better" if separated else "unresolved"
    return worse, "better" if worse < -bound else "ok"


def describe(report: Dict[str, Any], label: str) -> None:
    manifest = report["manifest"]
    run = manifest["run_manifest"]
    print("%s: seed %s, nproc %s, python %s, numpy %s, load %s, "
          "config %s, git %s, %d records"
          % (label, manifest["seed"], manifest["nproc"], manifest["python"],
             manifest["numpy"],
             "/".join("%.2f" % value
                      for value in manifest["loadavg_at_start"]),
             run["config_hash"][:12], run["git_sha"],
             len(report["records"])))


def changed_invariants(before: Dict[str, Any],
                       after: Dict[str, Any]) -> List[str]:
    """``protocol.*`` values that differ for equal (workload, seed)."""
    def exact(report: Dict[str, Any]) -> Dict[Tuple[str, int, str], Any]:
        return {(record["workload"], record["seed"], name): value
                for record in report["records"] if record["trace"] == 1
                for name, value in record["metrics"].items()
                if name.startswith("protocol.")}
    left, right = exact(before), exact(after)
    return ["%s seed %d %s: %r -> %r" % (key + (left[key], right[key]))
            for key in sorted(left.keys() & right.keys())
            if left[key] != right[key]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    describe(before, "A")
    describe(after, "B")

    status = 0
    for label, report in (("A", before), ("B", after)):
        failed = sum(record["failed"] for record in report["records"])
        if failed:
            print("%s: %d failed operations" % (label, failed))
            status = 1

    left, right = series(before, 0), series(after, 0)
    print("\n%-13s %-12s %12s %12s %12s %12s %8s %7s  %s"
          % ("workload", "metric", "A median", "A q1..q3", "B median",
             "B q1..q3", "worse", "bound", "verdict"))
    counts: Dict[str, int] = {}
    for name, _unit, better, bound in END_TO_END:
        for workload, metric in sorted(left):
            if metric != name or (workload, metric) not in right:
                continue
            a, b = left[(workload, metric)], right[(workload, metric)]
            worse, word = verdict(a, b, better, bound)
            counts[word] = counts.get(word, 0) + 1
            qa, qb = quartiles(a), quartiles(b)
            print("%-13s %-12s %12.6g %5.1f%%..%4.1f%% %12.6g %5.1f%%..%4.1f%% "
                  "%+7.1f%% %6.0f%%  %s"
                  % (workload, metric, qa[1],
                     100 * (qa[0] / qa[1] - 1), 100 * (qa[2] / qa[1] - 1),
                     qb[1], 100 * (qb[0] / qb[1] - 1),
                     100 * (qb[2] / qb[1] - 1), 100 * worse, 100 * bound,
                     word))
    print("\n" + ", ".join("%d %s" % (count, word)
                           for word, count in sorted(counts.items())))
    if counts.get("regression"):
        status = 1

    layers_before, layers_after = series(before, 1), series(after, 1)
    if layers_before and layers_after:
        print("\nper-layer medians (no bound; A -> B):")
        for name, unit, _better in PER_LAYER:
            for workload, metric in sorted(layers_before):
                key = (workload, metric)
                if metric != name or key not in layers_after:
                    continue
                a = statistics.median(layers_before[key])
                b = statistics.median(layers_after[key])
                if a or b:
                    print("%-13s %-32s %12.6g -> %12.6g %s"
                          % (workload, metric, a, b, unit))
        differing = changed_invariants(before, after)
        for line in differing:
            print("behaviour change: %s" % line)
        if differing:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
