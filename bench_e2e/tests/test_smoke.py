"""Smoke tests of the benchmark itself (``--quick``, TINY-sized worlds).

Run with ``python3 -m pytest bench_e2e/tests -q`` from the repository
root; the whole file takes well under 20 s.  Nothing here checks a
speed: quick numbers are stamped ``"profile": "quick"`` and
``compare.py`` refuses them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench_e2e import compare, run  # noqa: E402
from bench_e2e.metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                               benchmark_spec)
from bench_e2e.tracing import WRAP_TARGETS, SpanTable, Tracer  # noqa: E402
from bench_e2e.workloads import layer_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_PY = str(ROOT / "bench_e2e" / "run.py")


@pytest.fixture(scope="module")
def records() -> Dict[Tuple[str, int], Dict[str, Any]]:
    """One quick run of every workload, untraced and traced."""
    return {(workload, trace): run.run_one(workload, seed=5, seconds=0.3,
                                           trace=bool(trace), quick=True)
            for workload in WORKLOADS for trace in (0, 1)}


def test_benchmark_json_is_the_metrics_table() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == benchmark_spec()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["per_layer"]) <= 128
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_run_is_correct_and_stamped_quick(records) -> None:
    for record in records.values():
        assert record["profile"] == "quick"
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1


def test_end_to_end_metrics_present_and_never_zero(records) -> None:
    for workload in WORKLOADS:
        metrics = records[(workload, 0)]["metrics"]
        assert list(metrics) == [row[0] for row in END_TO_END]
        assert all(isinstance(value, float) and value > 0
                   for value in metrics.values()), (workload, metrics)


def test_per_layer_metrics_present(records) -> None:
    for workload in WORKLOADS:
        record = records[(workload, 1)]
        assert list(record["metrics"]) == [row[0] for row in PER_LAYER]
        # Every wrap target exists at this commit: nothing reads null.
        assert None not in record["metrics"].values(), record["warnings"]
        assert record["metrics"]["protocol.uplink_messages"] > 0
        assert record["metrics"]["engine.replay_s"] > 0


def test_layers_move_where_the_issue_says(records) -> None:
    def share(workload: str, metric: str) -> float:
        metrics = records[(workload, 1)]["metrics"]
        return metrics[metric] / metrics["engine.replay_s"]
    assert share("replay_pbsr", "wire.size_s") > 0.4
    assert share("replay_mwpsr", "wire.size_s") < 0.02
    assert share("replay_mwpsr", "saferegion.compute_s") > 0.2
    for workload in WORKLOADS:
        inserts = records[(workload, 1)]["metrics"]["index.inserts"]
        assert (inserts > 0) == (workload == "churn_mwpsr")
    serve = records[("serve_prd", 1)]["metrics"]
    assert serve["framing.frames"] > 0 and serve["net.rtt_p99_us"] > 0
    assert records[("replay_prd", 1)]["metrics"]["framing.frames"] == 0


def _self_time_gap(rows, root: str) -> float:
    """|sum of self times under ``root`` - root total| / root total."""
    under = [row for row in rows if row["path"].split("/")[0] == root]
    total = sum(row["total_ns"] for row in under if row["path"] == root)
    selfs = sum(row["total_ns"] - row["child_ns"] for row in under)
    assert total > 0
    return abs(selfs - total) / total


def test_self_times_sum_to_the_root_span(records) -> None:
    for workload in WORKLOADS:
        detail = records[(workload, 1)]["detail"]
        assert _self_time_gap(detail["setup_spans"], "setup") < 0.01
        if workload != "serve_prd":  # the daemon has no single root span
            assert _self_time_gap(detail["pass_spans"],
                                  "engine.replay") < 0.01


def test_protocol_counts_repeat_exactly(records) -> None:
    again = run.run_one("replay_gbsr", seed=5, seconds=0.1, trace=True,
                        quick=True)
    for name, value in records[("replay_gbsr", 1)]["metrics"].items():
        if name.startswith(("protocol.", "strategies.containment")):
            assert again["metrics"][name] == value, name


def test_missing_wrap_target_reads_null_with_a_warning(capsys) -> None:
    targets = tuple(("wire.size", module, dotted + "_renamed")
                    if span == "wire.size" else (span, module, dotted)
                    for span, module, dotted in WRAP_TARGETS)
    tracer = Tracer(targets)
    with tracer.installed(), tracer.span("engine.replay"):
        pass
    assert tracer.missing == ["wire.size"]
    assert any("size_of_response_renamed" in text
               for text in tracer.warnings)
    values = layer_metrics(SpanTable({}), tracer.take())
    assert values["wire.size_s"] is None and values["wire.size_calls"] is None
    assert values["index.query_s"] == 0  # installed, never called
    record = {"workload": "replay_pbsr", "seed": 0, "trace": 1,
              "profile": "quick", "correct": True, "attempted": 1,
              "failed": 0, "metrics": {"wire.size_s": None},
              "warnings": list(tracer.warnings)}
    run.print_record(record)
    captured = capsys.readouterr()
    assert "null" in captured.out and "warning:" in captured.err
    line = json.loads(run.contract_line(record))
    assert line["metrics"]["wire.size_s"] == {"value": 0, "unit": "s"}


def test_tracer_restores_what_it_rebound() -> None:
    from repro.index.rstar import RStarTree
    from repro.protocol import transport
    before = (RStarTree.insert, transport.handle_request)
    with Tracer().installed():
        assert (RStarTree.insert, transport.handle_request) != before
    assert (RStarTree.insert, transport.handle_request) == before


def test_contract_command_line(tmp_path) -> None:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "replay_mwpsr", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--quick"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(row[0] for row in END_TO_END)
    for name, unit, _better, _bound in END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "replay_prd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _report(tmp_path: Path, name: str, profile: str,
            fixes_per_s: Tuple[float, ...]) -> str:
    records = [{"workload": "replay_prd", "seed": seed, "trace": 0,
                "profile": profile, "failed": 0,
                "metrics": {"setup_s": 5.0 + seed / 100.0,
                            "fixes_per_s": value, "peak_rss_mb": 130.0}}
               for seed, value in enumerate(fixes_per_s)]
    report = {"profile": profile, "records": records,
              "manifest": run.manifest(0, quick=True)}
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_compare_verdicts(tmp_path, capsys) -> None:
    steady = (100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1)
    base = _report(tmp_path, "a.json", "full", steady)
    same = _report(tmp_path, "b.json", "full", steady[::-1])
    slow = _report(tmp_path, "c.json", "full",
                   tuple(0.7 * value for value in steady))
    noisy = _report(tmp_path, "d.json", "full",
                    (60.0, 140.0, 70.0, 130.0, 100.0, 101.0, 75.0, 125.0))
    assert compare.main([base, same]) == 0
    assert "unresolved" not in capsys.readouterr().out
    assert compare.main([base, slow]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_refuses_quick_reports(tmp_path) -> None:
    quick = _report(tmp_path, "q.json", "quick", (1.0, 2.0))
    with pytest.raises(SystemExit) as refusal:
        compare.main([quick, quick])
    assert refusal.value.code == 2
