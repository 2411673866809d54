"""Command-line interface.

Runs the reproduction from a shell without writing Python::

    python -m repro list
    python -m repro world --workload tiny
    python -m repro simulate --strategy mwpsr --workload tiny
    python -m repro figure 5a --workload bench

``figure`` regenerates one of the paper's tables/figures (the same
harnesses the benchmark suite drives); ``simulate`` runs a single
strategy over a workload preset and prints the headline metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import sys
import time
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple

from .engine import run_parallel_simulation, run_simulation
from .engine.metrics import Metrics
from .engine.server import AlarmServer
from .net import (AlarmDaemon, render_stats_json, render_stats_prom,
                  render_stats_text, render_top, scrape_stats)
from .protocol.wire import WireCodec
from .experiments import (BENCH, PAPER, TINY, ServerTime, Table,
                          WorkloadConfig, build_world,
                          coverage_size_tradeoff, figure1b, figure4a,
                          figure4b, figure5a, figure5b, figure6a, figure6b,
                          figure6c, figure6d, make_mwpsr_strategy,
                          make_pbsr_strategy, profile_report,
                          residence_statistics, safe_region_statistics,
                          workload_profile)
from .analysis.cli import add_check_arguments, run_check_command
from .protocol.transport import (InProcessTransport, LossyTransport,
                                 TransportFactory)
from .strategies import (OptimalStrategy, PeriodicStrategy,
                         ProcessingStrategy, SafePeriodStrategy)
from .telemetry import (EVENT_TYPES, JsonlSink, RunManifest, Telemetry,
                        TelemetryError, TraceData, filter_events, read_trace,
                        reconcile, render_event_line, render_json,
                        render_prom, render_text, validate_trace)

WORKLOADS: Dict[str, WorkloadConfig] = {
    "tiny": TINY,
    "bench": BENCH,
    "paper": PAPER,
}

FIGURES: Dict[str, Callable[..., Table]] = {
    "1b": figure1b,
    "4a": figure4a,
    "4b": figure4b,
    "5a": figure5a,
    "5b": figure5b,
    "6a": figure6a,
    "6b": figure6b,
    "6c": figure6c,
    "6d": figure6d,
}

STRATEGY_HELP = ("periodic | sp | mwpsr[:z] | mwpsr-nw | gbsr | "
                 "pbsr[:height] | opt")

#: Every strategy name with the default of its one positive integer
#: parameter; 0: the strategy takes no parameter.
STRATEGY_DEFAULTS: Dict[str, int] = {
    "periodic": 0, "sp": 0, "mwpsr": 32, "mwpsr-nw": 0, "gbsr": 0,
    "pbsr": 5, "opt": 0,
}


def _checked(convert: Callable[[str], float], test: Callable[[float], bool],
             bounds: str) -> Callable[[str], float]:
    """An argparse ``type=``: ``convert``, then refuse a value outside
    ``bounds`` with the usage error (exit 2), before anything runs."""
    def parse(text: str) -> float:
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(
                "%s is not in %s" % (text, bounds))
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value"
    return parse


DROP_RATE = _checked(float, lambda p: 0.0 <= p < 1.0, "[0, 1)")
SHARE = _checked(float, lambda p: 0.0 <= p <= 1.0, "[0, 1]")
POSITIVE = _checked(float, lambda x: x > 0.0, "(0, inf)")
COUNT = _checked(int, lambda n: n >= 1, "[1, inf)")


def _resolve_workload(args: argparse.Namespace) -> WorkloadConfig:
    config = WORKLOADS[args.workload]
    if getattr(args, "public", None) is not None:
        config = config.with_public_fraction(args.public)
    if getattr(args, "placement", None):
        from dataclasses import replace
        config = replace(config, alarm_placement=args.placement)
    return config


def _parse_strategy(spec: str) -> Tuple[str, int]:
    """Split ``name[:parameter]``, exiting with the usage message unless
    the name is known and a parameter, if given, is a positive integer
    the strategy takes."""
    name, colon, text = spec.lower().partition(":")
    default = STRATEGY_DEFAULTS.get(name)
    if default is not None and not colon:
        return name, default
    if default and text.isdecimal() and int(text) >= 1:
        return name, int(text)
    raise SystemExit("invalid strategy %r (choose from: %s)"
                     % (spec, STRATEGY_HELP))


def _resolve_strategy(spec: str, max_speed: float) -> ProcessingStrategy:
    name, parameter = _parse_strategy(spec)
    if name == "periodic":
        return PeriodicStrategy()
    if name == "sp":
        return SafePeriodStrategy(max_speed=max_speed)
    if name == "mwpsr":
        return make_mwpsr_strategy(z=parameter)
    if name == "mwpsr-nw":
        return make_mwpsr_strategy(weighted=False)
    if name == "gbsr":
        return make_pbsr_strategy(1)
    if name == "pbsr":
        return make_pbsr_strategy(parameter)
    return OptimalStrategy()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    print("workloads:  " + ", ".join(sorted(WORKLOADS)))
    print("figures:    " + ", ".join(sorted(FIGURES)))
    print("strategies: " + STRATEGY_HELP)
    return 0


def _cmd_world(args: argparse.Namespace) -> int:
    config = _resolve_workload(args)
    world = build_world(config, args.cell)
    print("universe:        %.0f x %.0f m (%.0f km^2)"
          % (world.universe.width, world.universe.height,
             world.universe.area / 1e6))
    print("grid:            %d x %d cells of %.2f km^2"
          % (world.grid.columns, world.grid.rows,
             world.grid.actual_cell_area_km2))
    print("vehicles:        %d, %.0f s at %.1f Hz (%d location fixes)"
          % (len(world.traces), world.duration_s,
             1.0 / world.traces.sample_interval,
             world.traces.total_samples))
    print("alarms:          %d (%s placement, %.0f%% public)"
          % (len(world.registry), config.alarm_placement,
             100 * config.public_fraction))
    print("expected alarms: %d triggers in the ground truth"
          % len(world.ground_truth()))
    return 0


def _resolve_transport(args: argparse.Namespace
                       ) -> Optional[TransportFactory]:
    """The transport factory the simulate flags ask for (None: default)."""
    lossy = args.uplink_drop > 0.0 or args.downlink_drop > 0.0
    if lossy:
        return functools.partial(LossyTransport,
                                 verify_wire=args.verify_wire,
                                 uplink_drop=args.uplink_drop,
                                 downlink_drop=args.downlink_drop,
                                 seed=args.net_seed)
    if args.verify_wire:
        return functools.partial(InProcessTransport, verify_wire=True)
    return None


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Checked here too, before the world is built: a worker process that
    # resolves a bad spec would fail far from the usage message.
    _parse_strategy(args.strategy)
    config = _resolve_workload(args)
    world = build_world(config, args.cell)
    transport_factory = _resolve_transport(args)
    if args.trace:
        manifest = RunManifest.collect(
            strategy=args.strategy, config=asdict(config),
            workers=args.workers, sizes=world.sizes.to_dict(),
            energy=world.energy.to_dict(), cell_area_km2=args.cell)
        telemetry = Telemetry.capture(sink=JsonlSink(args.trace),
                                      manifest=manifest)
        telemetry.write_manifest()
    else:
        # Metrics-only: the server time below (and --profile) is read
        # from the registry, and no event record is built.
        telemetry = Telemetry.metrics_only()
    try:
        if args.workers > 1:
            # The sharded engine constructs one strategy per worker
            # process, so it takes a picklable factory rather than an
            # instance.
            factory = functools.partial(_resolve_strategy, args.strategy,
                                        world.max_speed())
            result = run_parallel_simulation(
                world, factory, workers=args.workers, telemetry=telemetry,
                transport_factory=transport_factory)
        else:
            strategy = _resolve_strategy(args.strategy, world.max_speed())
            result = run_simulation(world, strategy, telemetry=telemetry,
                                    transport_factory=transport_factory)
        telemetry.write_summary(result.metrics.counters(),
                                triggers=len(result.metrics.triggers),
                                wall_time_s=result.wall_time_s,
                                workers=result.workers)
    finally:
        telemetry.close()
    metrics = result.metrics
    server = ServerTime.of(telemetry.registry)
    print("strategy:             %s" % result.strategy_name)
    if result.workers > 1:
        print("workers:              %d shards, %.2f s wall"
              % (result.workers, result.wall_time_s))
    print("uplink messages:      %d (%.2f%% of %d fixes)"
          % (metrics.uplink_messages, 100 * result.message_fraction,
             result.total_samples))
    print("downlink:             %d messages, %d bytes (%.5f Mbps)"
          % (metrics.downlink_messages, metrics.downlink_bytes,
             result.downstream_bandwidth_mbps))
    print("client energy:        %.4f mWh (%d containment ops)"
          % (result.client_energy_mwh, metrics.containment_ops))
    print("server time:          %.1f ms alarm processing, %.1f ms "
          "index lookup, %.1f ms safe-region computation"
          % (1000 * server.alarm_processing_s, 1000 * server.index_lookup_s,
             1000 * server.saferegion_s))
    if metrics.uplink_drops or metrics.downlink_drops:
        print("transport drops:      %d uplink, %d downlink (retried)"
              % (metrics.uplink_drops, metrics.downlink_drops))
    print("triggers:             %d delivered / %d expected "
          "(missed %d, spurious %d, late %d)"
          % (result.accuracy.delivered, result.accuracy.expected,
             result.accuracy.missed, result.accuracy.spurious,
             result.accuracy.late))
    if args.profile:
        print(profile_report(telemetry.registry))
    if args.trace:
        print("trace:                %s" % args.trace)
    return 0 if result.accuracy.perfect else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a workload's alarm server over a real socket.

    Runs until a client sends a SHUTDOWN frame
    (:meth:`~repro.net.SocketTransport.send_shutdown`) or the process
    receives SIGINT.  With ``--trace`` the daemon records the same JSONL
    telemetry a simulation records — ``repro report`` reconciles it and
    renders the net_* counters and latency histograms.
    """
    _parse_strategy(args.strategy)  # before the world is built
    config = _resolve_workload(args)
    world = build_world(config, args.cell)
    strategy = _resolve_strategy(args.strategy, world.max_speed())
    telemetry: Optional[Telemetry] = None
    if args.trace:
        manifest = RunManifest.collect(
            strategy=args.strategy, config=asdict(config), workers=1,
            sizes=world.sizes.to_dict(), energy=world.energy.to_dict(),
            cell_area_km2=args.cell)
        telemetry = Telemetry.capture(sink=JsonlSink(args.trace),
                                      manifest=manifest)
        telemetry.write_manifest()
    metrics = Metrics()
    server = AlarmServer(world.registry, world.grid, metrics,
                         sizes=world.sizes, telemetry=telemetry)
    daemon = AlarmDaemon(server, strategy.server_policy(),
                         WireCodec.from_sizes(world.sizes),
                         verify_wire=args.verify_wire,
                         batch_max=args.batch)

    async def _serve() -> None:
        if args.uds:
            await daemon.start_unix(args.uds)
            print("serving on %s" % args.uds, flush=True)
        else:
            port = await daemon.start_tcp(args.host, args.port)
            print("serving on %s:%d" % (args.host, port), flush=True)
        await daemon.serve_until_stopped()

    started = time.perf_counter()
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        wall_time = time.perf_counter() - started
        server.close()
        if telemetry is not None:
            telemetry.write_summary(metrics.counters(),
                                    triggers=len(metrics.triggers),
                                    wall_time_s=wall_time, workers=1)
            telemetry.close()
    print("served %d uplink messages (%d bytes up, %d down) in %.2f s"
          % (metrics.uplink_messages, metrics.uplink_bytes,
             metrics.downlink_bytes, wall_time))
    if args.trace:
        print("trace: %s" % args.trace)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """One-shot scrape of a running daemon's STATS channel."""
    if not args.uds and not args.port:
        raise SystemExit("stats needs --uds PATH or --port N")
    snapshot = scrape_stats(path=args.uds, host=args.host, port=args.port,
                            timeout_s=args.timeout)
    if args.format == "json":
        print(render_stats_json(snapshot))
    elif args.format == "prom":
        print(render_stats_prom(snapshot), end="")
    else:
        print(render_stats_text(snapshot))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll the STATS channel and render a live dashboard."""
    if not args.uds and not args.port:
        raise SystemExit("top needs --uds PATH or --port N")
    previous = None
    screens = 0
    try:
        while True:
            snapshot = scrape_stats(path=args.uds, host=args.host,
                                    port=args.port,
                                    timeout_s=args.timeout)
            screen = render_top(snapshot, previous, args.interval)
            if not args.no_clear:
                # ANSI clear-screen + cursor-home, like top(1).
                print("\x1b[2J\x1b[H", end="")
            print(screen, flush=True)
            previous = snapshot
            screens += 1
            if args.iterations is not None and screens >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _read_trace(path: str) -> Optional[TraceData]:
    """The trace at ``path``, its registry parsed too; or ``None`` once
    one stderr line says why not (exit 2: 1 means it did not reconcile)."""
    try:
        data = read_trace(path)
        data.registry()
        return data
    except (OSError, ValueError, TelemetryError) as exc:
        print("repro: cannot read trace %s: %s"
              % (path, getattr(exc, "strerror", None) or exc),
              file=sys.stderr)
        return None


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a recorded trace; exit non-zero if it fails to reconcile."""
    data = _read_trace(args.trace)
    if data is None:
        return 2
    if args.format == "json":
        print(render_json(data))
    elif args.format == "prom":
        print(render_prom(data), end="")
    else:
        print(render_text(data))
    result = reconcile(data)
    return 0 if result["ok"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Slice or validate a recorded trace's event stream."""
    data = _read_trace(args.trace)
    if data is None:
        return 2
    if args.mode == "validate":
        problems = validate_trace(data)
        for problem in problems:
            print(problem)
        print("%d events, %d problems" % (len(data.events), len(problems)))
        return 0 if not problems else 1
    # tail and filter share the slicing; tail is filter with a default
    # limit and no predicates unless given.
    limit = args.limit if args.limit is not None else (
        10 if args.mode == "tail" else None)
    selected = filter_events(data.events,
                             types=args.type if args.type else None,
                             user_id=args.user, shard=args.shard,
                             limit=limit)
    for record in selected:
        print(render_event_line(record))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    config = _resolve_workload(args)
    world = build_world(config, args.cell)
    print(workload_profile(world))
    print()
    areas = safe_region_statistics(world, sample_count=args.samples)
    print("MWPSR safe-region area (km^2): mean %.3f, p10 %.3f, "
          "median %.3f, p90 %.3f"
          % (areas.mean, areas.p10, areas.median, areas.p90))
    residence = residence_statistics(world, make_mwpsr_strategy(),
                                     max_vehicles=10)
    print("MWPSR region residence (s):   mean %.1f, p10 %.1f, "
          "median %.1f, p90 %.1f"
          % (residence.mean, residence.p10, residence.median,
             residence.p90))
    print()
    print(coverage_size_tradeoff(world, heights=(1, 2, 3, 4, 5),
                                 sample_count=args.samples))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _resolve_workload(args)
    harness = FIGURES[args.figure]
    table = harness() if args.figure == "1b" else harness(config)
    print(table)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safe region-based spatial alarm processing "
                    "(ICDCS 2009 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list workloads, figures, "
                                       "strategies").set_defaults(
        handler=_cmd_list)

    def add_workload_options(sub: argparse.ArgumentParser,
                             with_cell: bool = True) -> None:
        sub.add_argument("--workload", choices=sorted(WORKLOADS),
                         default="tiny", help="workload preset")
        sub.add_argument("--public", type=SHARE, default=None,
                         help="public-alarm fraction override (0..1)")
        sub.add_argument("--placement", choices=("uniform", "clustered"),
                         default=None, help="alarm target placement")
        if with_cell:
            sub.add_argument("--cell", type=POSITIVE, default=2.5,
                             help="grid cell area in km^2 (default 2.5)")

    world_parser = subparsers.add_parser(
        "world", help="describe a workload's world")
    add_workload_options(world_parser)
    world_parser.set_defaults(handler=_cmd_world)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run one strategy over a workload")
    simulate_parser.add_argument("--strategy", required=True,
                                 help=STRATEGY_HELP)
    simulate_parser.add_argument("--workers", type=COUNT, default=1,
                                 help="shard the replay over N worker "
                                      "processes (default 1: serial)")
    simulate_parser.add_argument("--profile", action="store_true",
                                 help="print a per-phase wall-time JSON "
                                      "report after the run")
    simulate_parser.add_argument("--trace", default=None, metavar="PATH",
                                 help="record a JSONL telemetry trace "
                                      "(manifest + events + summary) "
                                      "readable by `repro report`")
    simulate_parser.add_argument("--uplink-drop", type=DROP_RATE, default=0.0,
                                 metavar="P",
                                 help="lossy transport: per-attempt uplink "
                                      "drop probability in [0, 1)")
    simulate_parser.add_argument("--downlink-drop", type=DROP_RATE,
                                 default=0.0, metavar="P",
                                 help="lossy transport: per-attempt "
                                      "downlink drop probability in [0, 1)")
    simulate_parser.add_argument("--net-seed", type=int, default=0,
                                 help="seed of the lossy transport's "
                                      "private RNG (default 0)")
    simulate_parser.add_argument("--verify-wire", action="store_true",
                                 help="encode every message and assert "
                                      "charged bytes == encoded bytes")
    add_workload_options(simulate_parser)
    simulate_parser.set_defaults(handler=_cmd_simulate)

    def add_endpoint_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--uds", default=None, metavar="PATH",
                         help="Unix domain socket path (preferred for "
                              "local serving)")
        sub.add_argument("--host", default="127.0.0.1",
                         help="TCP bind/connect host (default 127.0.0.1)")
        sub.add_argument("--port", type=int, default=0,
                         help="TCP port (serve default 0: ephemeral)")

    serve_parser = subparsers.add_parser(
        "serve", help="serve a workload's alarm server over a socket "
                      "(docs/NETWORKING.md)")
    serve_parser.add_argument("--strategy", required=True,
                              help=STRATEGY_HELP)
    add_endpoint_options(serve_parser)
    serve_parser.add_argument("--batch", type=COUNT, default=64,
                              help="max REPLY frames per write "
                                   "(default 64)")
    serve_parser.add_argument("--trace", default=None, metavar="PATH",
                              help="record a JSONL telemetry trace "
                                   "readable by `repro report`")
    serve_parser.add_argument("--verify-wire", action="store_true",
                              help="assert charged bytes == encoded "
                                   "bytes per message and per frame")
    add_workload_options(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    stats_parser = subparsers.add_parser(
        "stats", help="scrape a running daemon's live STATS snapshot "
                      "(docs/OBSERVABILITY.md)")
    add_endpoint_options(stats_parser)
    stats_parser.add_argument("--format", choices=("text", "json", "prom"),
                              default="text",
                              help="output format (default: text)")
    stats_parser.add_argument("--timeout", type=float, default=10.0,
                              help="scrape timeout in seconds "
                                   "(default 10)")
    stats_parser.set_defaults(handler=_cmd_stats)

    top_parser = subparsers.add_parser(
        "top", help="poll a running daemon's STATS channel as a live "
                    "dashboard (Ctrl-C to exit)")
    add_endpoint_options(top_parser)
    top_parser.add_argument("--interval", type=float, default=1.0,
                            help="seconds between scrapes (default 1)")
    top_parser.add_argument("--iterations", type=int, default=None,
                            metavar="N",
                            help="stop after N screens (default: run "
                                 "until interrupted)")
    top_parser.add_argument("--no-clear", action="store_true",
                            help="append screens instead of clearing "
                                 "the terminal (useful under CI)")
    top_parser.add_argument("--timeout", type=float, default=10.0,
                            help="scrape timeout in seconds "
                                 "(default 10)")
    top_parser.set_defaults(handler=_cmd_top)

    profile_parser = subparsers.add_parser(
        "profile", help="profile a workload and its safe regions")
    profile_parser.add_argument("--samples", type=COUNT, default=60,
                                help="sample count for distributions")
    add_workload_options(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate a figure of the paper's evaluation")
    figure_parser.add_argument("figure", choices=sorted(FIGURES))
    add_workload_options(figure_parser, with_cell=False)
    figure_parser.set_defaults(handler=_cmd_figure)

    check_parser = subparsers.add_parser(
        "check", help="run the static checker; --list-rules names its "
                      "rules (docs/STATIC_ANALYSIS.md)")
    add_check_arguments(check_parser)
    check_parser.set_defaults(handler=run_check_command)

    report_parser = subparsers.add_parser(
        "report", help="render a recorded telemetry trace "
                       "(docs/OBSERVABILITY.md)")
    report_parser.add_argument("trace", help="JSONL trace file from "
                                             "`simulate --trace`")
    report_parser.add_argument("--format", choices=("text", "json", "prom"),
                               default="text",
                               help="output format (default: text)")
    report_parser.set_defaults(handler=_cmd_report)

    trace_parser = subparsers.add_parser(
        "trace", help="slice or validate a trace's event stream")
    trace_parser.add_argument("mode", choices=("tail", "filter", "validate"),
                              help="tail: last N events; filter: select "
                                   "by type/user/shard; validate: check "
                                   "every record against the schema")
    trace_parser.add_argument("trace", help="JSONL trace file")
    trace_parser.add_argument("--type", action="append", default=None,
                              choices=EVENT_TYPES, metavar="EVENT",
                              help="event type to keep (repeatable; "
                                   "one of: %s)" % ", ".join(EVENT_TYPES))
    trace_parser.add_argument("--user", type=int, default=None,
                              help="keep events of this user id")
    trace_parser.add_argument("--shard", type=int, default=None,
                              help="keep events of this shard index")
    trace_parser.add_argument("--limit", type=int, default=None,
                              help="keep the last N matches "
                                   "(default 10 for tail)")
    trace_parser.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
