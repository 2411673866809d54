"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root is this table written out
(``tests/test_smoke.py`` keeps the two equal); ``run.py`` prints the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Layer names are the repository's module names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 8

#: name -> why it is here (one line each; the README says more).
WORKLOADS: Dict[str, str] = {
    "replay_prd": "metro, periodic strategy: every fix is an uplink, so "
                  "index point queries and transport charging do the work "
                  "and saferegion none; setup is 10k R*-tree inserts",
    "replay_mwpsr": "fleet, MWPSR(z=32), the paper's headline strategy: "
                    "safe-region computation and range lookups dominate, "
                    "downlink sizing is ~0",
    "replay_pbsr": "fleet, PBSR(h=5): downlink sizing of lazy bitmaps and "
                   "client probes dominate; saferegion compute is <1%",
    "replay_gbsr": "fleet, GBSR (height 1): same bitmap layer, a third of "
                   "fixes become uplinks, sizing ~1%; a sizing fix "
                   "predicts no change here",
    "churn_mwpsr": "fleet, MWPSR with 600 installs and 300 removals during "
                   "the run: index writes beside reads, invalidation "
                   "pushes, the time-major loop",
    "serve_prd": "metro, periodic policy behind an AlarmDaemon child on a "
                 "Unix socket, closed loop, 2 connections, window 64: "
                 "replay_prd's handler work plus framing, wire and net",
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("fixes_per_s", "fixes/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

#: (name, unit, better).  Counts that are invariants of the inputs are
#: marked "lower" by convention; a change in them is a behaviour change.
PER_LAYER: List[Tuple[str, str, str]] = [
    # world build (moves setup_s)
    ("roadnet.generate_s", "s", "lower"),
    ("mobility.generate_s", "s", "lower"),
    ("mobility.fixes", "count", "lower"),
    ("alarms.install_s", "s", "lower"),
    ("alarms.installed", "count", "lower"),
    ("index.insert_us", "us", "lower"),
    ("index.height", "count", "lower"),
    ("groundtruth.scan_s", "s", "lower"),
    ("groundtruth.expected_triggers", "count", "lower"),
    # one traced pass (moves fixes_per_s)
    ("engine.replay_s", "s", "lower"),
    ("engine.warmup_s", "s", "lower"),
    ("strategies.client_self_s", "s", "lower"),
    ("strategies.containment_checks", "count", "lower"),
    ("strategies.containment_ops", "count", "lower"),
    ("transport.request_s", "s", "lower"),
    ("transport.self_s", "s", "lower"),
    ("transport.requests", "count", "lower"),
    ("transport.pushes", "count", "lower"),
    ("handlers.handle_s", "s", "lower"),
    ("alarms.trigger_eval_s", "s", "lower"),
    ("alarms.trigger_evals", "count", "lower"),
    ("alarms.range_lookup_s", "s", "lower"),
    ("alarms.range_lookups", "count", "lower"),
    ("index.query_s", "s", "lower"),
    ("index.queries", "count", "lower"),
    ("index.node_accesses", "count", "lower"),
    ("index.nodes_per_query", "count", "lower"),
    ("index.insert_s", "s", "lower"),
    ("index.delete_s", "s", "lower"),
    ("index.inserts", "count", "lower"),
    ("index.deletes", "count", "lower"),
    ("groundtruth.dynamic_scan_s", "s", "lower"),
    ("saferegion.compute_s", "s", "lower"),
    ("saferegion.computations", "count", "lower"),
    ("saferegion.compute_us_mean", "us", "lower"),
    ("wire.size_s", "s", "lower"),
    ("wire.size_calls", "count", "lower"),
    ("saferegion.sizing_s", "s", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("framing.encode_s", "s", "lower"),
    ("framing.decode_s", "s", "lower"),
    ("framing.frames", "count", "lower"),
    # serving (serve_prd only; open loop unless stated)
    ("net.daemon_self_s", "s", "lower"),
    ("net.cpu_util", "ratio", "higher"),
    ("net.busy_us_per_report", "us", "lower"),
    ("net.rtt_p50_us", "us", "lower"),
    ("net.rtt_p99_us", "us", "lower"),
    ("net.rtt_p99_us.r10k", "us", "lower"),
    ("net.rtt_p99_us.r40k", "us", "lower"),
    ("net.max_rate_ok", "1/s", "higher"),
    ("loadgen.cpu_util", "ratio", "lower"),
    ("loadgen.late_share", "ratio", "lower"),
    ("loadgen.max_late_ms", "ms", "lower"),
    # protocol invariants (exact, repeat bit for bit)
    ("protocol.uplink_messages", "count", "lower"),
    ("protocol.uplink_bytes", "count", "lower"),
    ("protocol.downlink_messages", "count", "lower"),
    ("protocol.downlink_bytes", "count", "lower"),
    ("protocol.trigger_notifications", "count", "lower"),
    ("protocol.uplink_share", "ratio", "lower"),
    # diagnostics
    ("engine.batch_fixes_per_s", "fixes/s", "higher"),
    ("engine.sharded_w2_fixes_per_s", "fixes/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


_UNITS: Dict[str, str] = {row[0]: row[1] for row in END_TO_END}
_UNITS.update((row[0], row[1]) for row in PER_LAYER)


def unit_of(name: str) -> str:
    """The unit a metric is printed with."""
    return _UNITS[name]


def benchmark_spec() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
