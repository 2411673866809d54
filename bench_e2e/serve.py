"""``serve_prd``: the periodic policy behind a daemon child on a Unix socket.

The untraced run saturates the daemon closed loop for ``--seconds`` and
reports the median half-second slice, each corrected with the daemon's
own speed readings (``probe.py``).  The traced run spends the same
time box on five phases against one daemon: closed loop untraced (the
base of the overhead ratio, CPU utilisation), open loop at 10k, 20k and
40k reports/s untraced (the ``net.rtt_*`` numbers), then ``SIGUSR1``
installs the layer wrappers inside the daemon for one more closed-loop
phase (the layer shares).

Every reply is counted; the notifications of each connection's first
pass over its stream must equal the ground truth of the fixes sent.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine import World
from repro.protocol.framing import FRAME_HEADER_SIZE

from . import loadgen
from .layers import (all_layers, layer_metrics, nodes_per_query,
                     protocol_counts)
from .probe import corrected
from .tracing import SpanTable
from .workloads import Outcome, build_once
from .worlds import world_config

CONNECTIONS = 2
WINDOW = 64
OPEN_LOOP_RATES = (10000.0, 20000.0, 40000.0)
#: Shares of ``--seconds`` the traced run gives its phases: closed,
#: open x 3 (the 20k/s phase, whose percentiles are reported, longest),
#: traced closed.
CLOSED_SHARE = 0.2
OPEN_SHARES = (0.15, 0.3, 0.15)
RTT_LIMIT_S = 0.025


def _trigger_positions(world: World) -> List[List[int]]:
    """Per connection, the sorted stream positions of expected triggers.

    Mirrors :func:`loadgen.encode_streams`: vehicles dealt round-robin,
    each vehicle's fixes contiguous and in trace order.
    """
    starts: Dict[int, Tuple[int, int]] = {}
    cursors = [0] * CONNECTIONS
    for index, vehicle_id in enumerate(world.user_ids):
        conn_index = index % CONNECTIONS
        starts[vehicle_id] = (conn_index, cursors[conn_index])
        cursors[conn_index] += len(world.traces[vehicle_id])
    positions: List[List[int]] = [[] for _ in range(CONNECTIONS)]
    for (user_id, _alarm_id), time_s in world.ground_truth().items():
        conn_index, start = starts[user_id]
        offset = next(i for i, sample in enumerate(world.traces[user_id])
                      if sample.time == time_s)
        positions[conn_index].append(start + offset)
    for series in positions:
        series.sort()
    return positions


class _Session:
    """A ready daemon child and the generator's connections to it."""

    def __init__(self, daemon: loadgen.DaemonProcess, launched_at: float,
                 ready: Dict[str, Any], world: World,
                 conns: List[loadgen.Connection], frame_size: int,
                 pinned: List[Optional[int]]) -> None:
        self.daemon = daemon
        self.launched_at = launched_at
        self.ready = ready
        self.world = world
        self.conns = conns
        self.frame_size = frame_size
        self.pinned = pinned
        self.triggers = _trigger_positions(world)

    def closed(self, seconds: float, outcome: Outcome) -> Dict[str, Any]:
        cpu_before = self.daemon.cpu_s()
        phase = loadgen.closed_loop(self.conns, seconds, WINDOW)
        phase["daemon_cpu_s"] = self.daemon.cpu_s() - cpu_before
        outcome.check("closed loop: unanswered reports", phase["unanswered"],
                      count=phase["reports"] + phase["unanswered"])
        return phase

    def open(self, seconds: float, rate: float,
             outcome: Outcome) -> Dict[str, Any]:
        phase = loadgen.open_loop(self.conns, seconds, rate)
        latencies = phase.pop("latencies_s")
        phase["p50_us"] = 1e6 * loadgen.percentile(latencies, 0.50)
        phase["p99_us"] = 1e6 * loadgen.percentile(latencies, 0.99)
        phase["samples_beyond_p99"] = (len(latencies)
                                       - int(0.99 * len(latencies)))
        # A rate holds when its p99 meets the limit and no backlog built
        # up: what was unanswered when the schedule ended fits the limit.
        phase["ok"] = (phase["unanswered"] == 0
                       and phase["backlog"] <= rate * RTT_LIMIT_S
                       and phase["p99_us"] <= 1e6 * RTT_LIMIT_S)
        outcome.check("open loop %d/s: unanswered reports" % rate,
                      phase["unanswered"],
                      count=phase["reports"] + phase["unanswered"])
        return phase

    def check_replies(self, outcome: Outcome) -> None:
        """First-pass notifications against the ground truth; no errors."""
        for index, conn in enumerate(self.conns):
            sent_of_first_pass = min(conn.replied, conn.frames)
            expected = bisect.bisect_left(self.triggers[index],
                                          sent_of_first_pass)
            got = conn.first_pass["notifications"]
            outcome.check("connection %d: %d first-pass notifications, "
                          "ground truth says %d" % (index, got, expected),
                          abs(got - expected), count=max(1, expected))
            outcome.check("connection %d: an alarm fired twice" % index,
                          conn.notifications - got)
            outcome.check("connection %d: %s"
                          % (index, "; ".join(conn.errors)),
                          len(conn.errors))


@contextmanager
def _session(seed: int, quick: bool, trace: bool,
             scratch: Path) -> Iterator[_Session]:
    """Launch the daemon, build the streams, connect; tear all down after."""
    # Noise hygiene: generator and daemon on different cores when two
    # exist; on one core the generator steals from the daemon.
    affinity = os.sched_getaffinity(0)
    cores = sorted(affinity)
    pinned: List[Optional[int]] = [None, None]
    if len(cores) >= 2:
        pinned = [cores[0], cores[1]]
        os.sched_setaffinity(0, {cores[0]})
    scratch.mkdir(parents=True, exist_ok=True)
    # Relative, because a Unix socket path holds ~100 bytes at most.
    sock_path = os.path.relpath(scratch / ("daemon-%d.sock" % os.getpid()))
    launched_at = time.perf_counter()  # one clock for every process
    daemon = loadgen.DaemonProcess(seed, sock_path, quick, trace, pinned[1])
    conns: List[loadgen.Connection] = []
    try:
        # The daemon builds its world meanwhile, on the other core.
        world = build_once(world_config("metro", seed, quick))
        blobs, frame_size = loadgen.encode_streams(world, CONNECTIONS)
        session = _Session(daemon, launched_at, daemon.read_line(600.0),
                           world, conns, frame_size, pinned)
        conns.extend(loadgen.Connection(sock_path, blob, frame_size)
                     for blob in blobs)
        # The generator is the measuring instrument: a collection over
        # its copy of the world would show up as lateness and latency.
        gc.collect()
        gc.freeze()
        yield session
    finally:
        gc.unfreeze()
        for conn in conns:
            conn.close()
        daemon.kill()
        os.sched_setaffinity(0, affinity)


def run_serve(seed: int, seconds: float, trace: bool, quick: bool,
              scratch: Path) -> Outcome:
    """One run of ``serve_prd``."""
    outcome = Outcome()
    with _session(seed, quick, trace, scratch) as session:
        if not trace:
            closed = session.closed(seconds, outcome)
        else:
            closed = session.closed(CLOSED_SHARE * seconds, outcome)
            opened = [session.open(share * seconds, rate, outcome)
                      for share, rate in zip(OPEN_SHARES, OPEN_LOOP_RATES)]
            session.daemon.start_tracing()
            traced = session.closed(CLOSED_SHARE * seconds, outcome)
        session.check_replies(outcome)
        report = session.daemon.shutdown(session.conns[0])

    fixes = sum(conn.frames for conn in session.conns)
    outcome.detail = {"fixes": fixes, "closed": closed,
                      "pinned": session.pinned}
    if not trace:
        # Corrected with the daemon's own speed readings: its launch to
        # its ready line, and the replies of each half-second slice.
        samples = [tuple(sample) for sample in report["probe_samples"]]
        setup_s, setup_factor = corrected(samples, session.launched_at,
                                          session.ready["ready_at"])
        rates = [replies / corrected(samples, started, ended)[0]
                 for started, ended, replies in closed["slices"]]
        outcome.metrics = {
            "setup_s": setup_s,
            "fixes_per_s": statistics.median(rates),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        outcome.detail.update({
            "setup_raw_s": session.ready["ready_at"] - session.launched_at,
            "setup_speed_factor": setup_factor,
            "corrected_slice_rates": rates,
            "probe_readings": len(samples)})
        return outcome

    outcome.warnings.extend(report["warnings"])
    setup = SpanTable.from_rows(report["setup_spans"], report["missing"])
    spans = SpanTable.from_rows(report["serving_spans"], report["missing"])
    values = layer_metrics(setup, spans)
    at_rate = {phase["rate"]: phase for phase in opened}
    offered = sum(phase["reports"] + phase["unanswered"] for phase in opened)
    # CPU the daemon burnt in the traced phase that no layer span covers.
    covered_ns = sum(entry[1] for path, entry in spans.paths.items()
                     if len(path) == 1)
    values.update({
        "mobility.fixes": fixes,
        "alarms.installed": session.ready["alarms"],
        "index.height": session.ready["index_height"],
        "groundtruth.expected_triggers": len(session.world.ground_truth()),
        "engine.replay_s": traced["wall_s"],
        "index.node_accesses": report["traced_node_accesses"],
        "index.nodes_per_query": nodes_per_query(
            spans, report["traced_node_accesses"]),
        "net.daemon_self_s": report["traced_cpu_s"] - covered_ns / 1e9,
        "net.cpu_util": closed["daemon_cpu_s"] / closed["wall_s"],
        "net.busy_us_per_report": (closed["daemon_cpu_s"] * 1e6
                                   / max(1, closed["reports"])),
        "net.rtt_p50_us": at_rate[OPEN_LOOP_RATES[1]]["p50_us"],
        "net.rtt_p99_us": at_rate[OPEN_LOOP_RATES[1]]["p99_us"],
        "net.rtt_p99_us.r10k": at_rate[OPEN_LOOP_RATES[0]]["p99_us"],
        "net.rtt_p99_us.r40k": at_rate[OPEN_LOOP_RATES[2]]["p99_us"],
        "net.max_rate_ok": max((phase["rate"] for phase in opened
                                if phase["ok"]), default=0),
        "loadgen.cpu_util": closed["loadgen_cpu_s"] / closed["wall_s"],
        "loadgen.late_share": (sum(phase["late"] for phase in opened)
                               / max(1, offered)),
        "loadgen.max_late_ms": 1e3 * max(phase["max_late_s"]
                                         for phase in opened),
        "trace.overhead_ratio": (closed["reports"] / closed["wall_s"])
        / (traced["reports"] / traced["wall_s"]),
    })
    if all(conn.replied >= conn.frames for conn in session.conns):
        # Only a complete first pass repeats bit for bit.
        first = [conn.first_pass for conn in session.conns]
        values.update(protocol_counts(
            fixes, fixes * (session.frame_size - FRAME_HEADER_SIZE),
            sum(part["downlink_messages"] for part in first),
            sum(part["downlink_bytes"] for part in first),
            sum(part["notifications"] for part in first), fixes))
    else:
        outcome.warnings.append("first pass incomplete: protocol.* read 0")
    outcome.metrics = all_layers(values)
    outcome.detail.update({"open": opened, "traced": traced,
                           "setup_spans": setup.to_rows(),
                           "pass_spans": spans.to_rows()})
    return outcome
