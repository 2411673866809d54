"""Child process of ``serve_prd``: an ``AlarmDaemon`` on a Unix socket.

Builds the daemon the way ``repro serve --strategy periodic`` does
(world, ``AlarmServer``, ``AlarmDaemon`` with ``batch_max=64`` and
``queue_limit=256``) and talks to its parent over stdout, one JSON
object per line:

* ``{"ready": ...}`` once the socket accepts connections;
* ``{"tracing": true}`` after ``SIGUSR1`` installed the layer wrappers
  (traced runs only; the untraced phases before it run unwrapped);
* a final report after a SHUTDOWN frame stopped the daemon: peak RSS,
  the run's ``Metrics`` counters, and either the speed probe's readings
  (untraced runs) or the span tables (traced runs).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.engine import AlarmServer, Metrics  # noqa: E402
from repro.experiments.configs import build_world  # noqa: E402
from repro.net.daemon import AlarmDaemon  # noqa: E402
from repro.protocol.wire import WireCodec  # noqa: E402
from repro.strategies import PeriodicStrategy  # noqa: E402

from bench_e2e.probe import SpeedProbe  # noqa: E402
from bench_e2e.tracing import SpanTable, Tracer  # noqa: E402
from bench_e2e.worlds import world_config  # noqa: E402

BATCH_MAX = 64
QUEUE_LIMIT = 256


def _say(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sock", required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=-1)
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    # The daemon has a core of its own, so it probes its own speed; the
    # parent corrects set-up and throughput with these readings.  Traced
    # runs go without: a probe reading would sit in their latencies.
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    tracer = Tracer()
    config = world_config("metro", args.seed, bool(args.quick))
    setup_table: Optional[SpanTable] = None
    if args.trace:
        with tracer.installed(), tracer.span("setup"):
            world = build_world(config)
        setup_table = tracer.take()
    else:
        world = build_world(config)
    metrics = Metrics()
    server = AlarmServer(world.registry, world.grid, metrics,
                         sizes=world.sizes)
    daemon = AlarmDaemon(server, PeriodicStrategy().server_policy(),
                         WireCodec.from_sizes(world.sizes),
                         batch_max=BATCH_MAX, queue_limit=QUEUE_LIMIT)
    traced_from: Dict[str, float] = {}

    def start_tracing() -> None:
        tracer.install()
        traced_from.update(metrics.counters())
        traced_from["cpu_s"] = time.process_time()
        _say({"tracing": True})

    async def serve() -> None:
        await daemon.start_unix(args.sock)
        if args.trace:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGUSR1, start_tracing)
        _say({"ready": True, "ready_at": time.perf_counter(),
              "alarms": len(world.registry),
              "index_height": world.registry.tree.height})
        await daemon.serve_until_stopped()

    try:
        asyncio.run(serve())
    finally:
        probe.stop()
        server.close()
        tracer.uninstall()
    report: Dict[str, object] = {
        "done": True,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": metrics.counters(),
        "warnings": tracer.warnings,
        "probe_samples": probe.samples(),
    }
    if args.trace:
        assert setup_table is not None
        serving = tracer.take()
        report["missing"] = sorted(serving.missing)
        report["setup_spans"] = setup_table.to_rows()
        report["serving_spans"] = serving.to_rows()
        report["traced_cpu_s"] = (time.process_time()
                                  - traced_from.get("cpu_s", 0.0))
        report["traced_node_accesses"] = (
            metrics.index_node_accesses
            - traced_from.get("index_node_accesses", 0))
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
