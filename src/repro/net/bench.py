"""``repro bench-net``: a pipelined load generator for the daemon.

The benchmark replays a mobility trace set against a running
:class:`~repro.net.daemon.AlarmDaemon` as raw location reports — every
fix becomes one REQUEST frame, the periodic strategy's workload, which
is the densest uplink stream any strategy produces.  Unlike the
engines it does not stop-and-wait: each of ``connections`` concurrent
connections keeps up to ``window`` requests in flight, so the daemon's
batching actually batches and socket round-trips amortize.

Replies are checked for frame integrity and summarized
(:func:`~repro.protocol.framing.reply_summary`) without full protocol
decoding — the benchmark measures serving, not client-side decode.
Per-request latency is measured FIFO: the daemon preserves
per-connection order (one bounded queue, one drain worker), so the
oldest in-flight send matches the next reply.

This module is importable engine code (RL007: no printing here);
``repro bench-net`` renders :meth:`BenchResult.to_dict` as JSON.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..geometry import Point
from ..mobility.trace import Trace, TraceSet
from ..protocol.framing import (Frame, FrameDecoder, FrameKind,
                                decode_error, encode_frame, encode_hello,
                                reply_summary)
from ..protocol.messages import LocationReport
from ..protocol.transport import TransportError
from ..protocol.wire import WireCodec
from ..telemetry.manifest import RunManifest

#: Socket read size, matching the daemon's.
_READ_CHUNK = 1 << 16


@dataclass
class BenchResult:
    """What one benchmark run measured."""

    connections: int
    reports: int
    replies: int
    notifications: int
    wall_s: float
    latency_p50_us: float
    latency_p90_us: float
    latency_p99_us: float
    latency_max_us: float
    bytes_sent: int
    bytes_received: int

    @property
    def reports_per_s(self) -> float:
        return self.reports / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self, manifest: Optional[RunManifest] = None
                ) -> Dict[str, object]:
        """JSON-ready summary (the ``repro bench-net`` output).

        With ``manifest`` the run's provenance (config hash, git sha,
        seeds) is embedded under ``run_manifest``, the same record the
        trace-writing benchmarks carry, so a committed baseline like
        ``BENCH_net.json`` states what produced it.
        """
        payload: Dict[str, object] = {
            "connections": self.connections,
            "reports": self.reports,
            "replies": self.replies,
            "notifications": self.notifications,
            "wall_s": round(self.wall_s, 6),
            "reports_per_s": round(self.reports_per_s, 1),
            "latency_p50_us": round(self.latency_p50_us, 1),
            "latency_p90_us": round(self.latency_p90_us, 1),
            "latency_p99_us": round(self.latency_p99_us, 1),
            "latency_max_us": round(self.latency_max_us, 1),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }
        if manifest is not None:
            payload["run_manifest"] = manifest.to_dict()
        return payload


class _ConnTally:
    """Mutable per-connection counters (merged after the gather)."""

    __slots__ = ("reports", "replies", "notifications", "bytes_sent",
                 "bytes_received", "latencies_us")

    def __init__(self) -> None:
        self.reports = 0
        self.replies = 0
        self.notifications = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.latencies_us: List[float] = []


def _percentile(sorted_us: List[float], q: float) -> float:
    if not sorted_us:
        return 0.0
    index = int(round(q * (len(sorted_us) - 1)))
    return sorted_us[index]


async def _open(path: Optional[str], host: str, port: int
                ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    if path is not None:
        return await asyncio.open_unix_connection(path)
    return await asyncio.open_connection(host, port)


async def _next_reply(reader: asyncio.StreamReader,
                      decoder: FrameDecoder, pending: Deque[Frame],
                      tally: _ConnTally) -> Frame:
    """Read until the next REPLY frame; ERROR and EOF raise."""
    while True:
        while pending:
            frame = pending.popleft()
            if frame.kind is FrameKind.REPLY:
                return frame
            if frame.kind is FrameKind.ERROR:
                raise TransportError(
                    "server error: %s" % decode_error(frame.payload))
            raise TransportError(
                "unexpected %s frame from the server" % frame.kind.name)
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            raise TransportError(
                "server closed the connection during the benchmark")
        tally.bytes_received += len(chunk)
        pending.extend(decoder.feed(chunk))


async def _reap(reader: asyncio.StreamReader, decoder: FrameDecoder,
                pending: Deque[Frame], sent_at: Deque[float],
                tally: _ConnTally) -> None:
    """Collect one outstanding reply and account it."""
    frame = await _next_reply(reader, decoder, pending, tally)
    tally.latencies_us.append(
        (time.perf_counter() - sent_at.popleft()) * 1e6)
    messages, notifications, _charged = reply_summary(frame.payload)
    del messages
    tally.replies += 1
    tally.notifications += notifications


def _encode_stream(codec: WireCodec, vehicles: List[Trace],
                   repeat: int, time_offset: float) -> List[bytes]:
    """Pre-encode one connection's REQUEST frames, in send order.

    Encoding outside the timed window is deliberate: a load generator
    measures the *serving* path, and pre-built payloads keep the
    client's per-report work (and its share of the CPU) out of the
    measurement.  Sequence numbers count up per user across repeats;
    each repeat shifts timestamps by ``time_offset`` so every user's
    clock stays monotone.
    """
    frames: List[bytes] = []
    sequences: Dict[int, int] = {}
    for round_index in range(repeat):
        shift = round_index * time_offset
        for trace in vehicles:
            user_id = trace.vehicle_id
            for time_s, x, y, heading, speed in trace.rows():
                sequence = sequences.get(user_id, 0)
                sequences[user_id] = sequence + 1
                report = LocationReport(user_id, sequence, Point(x, y),
                                        heading, speed)
                frames.append(
                    encode_frame(FrameKind.REQUEST,
                                 codec.encode_request(report),
                                 time_s + shift))
    return frames


async def _drive_connection(path: Optional[str], host: str, port: int,
                            frames: List[bytes], window: int,
                            tally: _ConnTally) -> None:
    reader, writer = await _open(path, host, port)
    decoder = FrameDecoder()
    pending: Deque[Frame] = deque()
    sent_at: Deque[float] = deque()
    try:
        hello = encode_frame(FrameKind.HELLO, encode_hello())
        writer.write(hello)
        tally.bytes_sent += len(hello)
        for frame in frames:
            if len(sent_at) >= window:
                await _reap(reader, decoder, pending, sent_at, tally)
                await writer.drain()
            writer.write(frame)
            sent_at.append(time.perf_counter())
            tally.bytes_sent += len(frame)
            tally.reports += 1
        while sent_at:
            await _reap(reader, decoder, pending, sent_at, tally)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _send_shutdown(path: Optional[str], host: str,
                         port: int) -> None:
    reader, writer = await _open(path, host, port)
    del reader
    try:
        writer.write(encode_frame(FrameKind.HELLO, encode_hello())
                     + encode_frame(FrameKind.SHUTDOWN, b""))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_bench(traces: TraceSet, *, path: Optional[str] = None,
              host: str = "127.0.0.1", port: int = 0,
              codec: Optional[WireCodec] = None, connections: int = 4,
              window: int = 64, repeat: int = 1,
              shutdown: bool = False) -> BenchResult:
    """Replay ``traces`` against a running daemon; measure throughput.

    ``path`` selects a Unix-domain socket (else TCP ``host:port``).
    Vehicles are partitioned round-robin across ``connections``;
    ``repeat`` replays the set that many times with monotone per-user
    timestamps (each round shifted by the trace duration plus a
    second).  ``shutdown`` sends the daemon a SHUTDOWN frame on a
    fresh connection once the benchmark completes.
    """
    if connections < 1:
        raise ValueError("connections must be positive")
    if window < 1:
        raise ValueError("window must be positive")
    if repeat < 1:
        raise ValueError("repeat must be positive")
    codec = codec if codec is not None else WireCodec()
    vehicles = [traces[vehicle_id] for vehicle_id in traces.vehicle_ids()]
    connections = min(connections, len(vehicles)) or 1
    shards: List[List[Trace]] = [
        vehicles[index::connections] for index in range(connections)]
    time_offset = traces.duration() + 1.0
    tallies = [_ConnTally() for _ in range(connections)]
    streams = [_encode_stream(codec, shard, repeat, time_offset)
               for shard in shards]

    async def _main() -> float:
        started = time.perf_counter()
        await asyncio.gather(*(
            _drive_connection(path, host, port, frames, window, tally)
            for frames, tally in zip(streams, tallies)))
        wall = time.perf_counter() - started
        if shutdown:
            await _send_shutdown(path, host, port)
        return wall

    wall_s = asyncio.run(_main())
    latencies = sorted(value for tally in tallies
                       for value in tally.latencies_us)
    return BenchResult(
        connections=connections,
        reports=sum(tally.reports for tally in tallies),
        replies=sum(tally.replies for tally in tallies),
        notifications=sum(tally.notifications for tally in tallies),
        wall_s=wall_s,
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p90_us=_percentile(latencies, 0.90),
        latency_p99_us=_percentile(latencies, 0.99),
        latency_max_us=latencies[-1] if latencies else 0.0,
        bytes_sent=sum(tally.bytes_sent for tally in tallies),
        bytes_received=sum(tally.bytes_received for tally in tallies))
