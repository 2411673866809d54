"""Load generator and daemon control for ``serve_prd``.

One process, one thread, ``select`` over (at most two) non-blocking
Unix sockets.  REQUEST frames are encoded before anything is timed and
are all the same size, so a connection's whole report stream is one
``bytes`` blob and a burst of reports is one ``send`` of a slice.

Two ways of offering load, stated with every number they produce:

* **closed loop** (:func:`closed_loop`): each connection keeps up to
  ``window`` reports unanswered and sends the next only when a reply
  frees a slot — a slow daemon is offered less.  Gives the saturation
  throughput.
* **open loop** (:func:`open_loop`): report *i* of a connection is due
  at ``start + i / rate`` whatever the daemon does, and its latency is
  counted from that due time, so a stall is charged to every report
  queued behind it.  How late the generator itself handed reports to
  the kernel is recorded beside the latencies.

Replies are parsed with the repository's own ``FrameDecoder`` and
``reply_summary`` (as ``repro bench-net`` does), so the generator
follows the frame format instead of duplicating it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import World
from repro.protocol.framing import (FrameDecoder, FrameKind, decode_error,
                                    encode_frame, encode_hello,
                                    reply_summary)
from repro.protocol.messages import LocationReport
from repro.protocol.wire import WireCodec

HERE = Path(__file__).resolve().parent
_READ_CHUNK = 1 << 16
#: A report handed to the kernel more than this after it was due is late.
LATE_S = 0.001
#: How long a phase waits for outstanding replies before calling them lost.
DRAIN_TIMEOUT_S = 10.0
#: Closed-loop throughput is read per slice of this length.
SLICE_S = 0.5


class Connection:
    """One generator connection: its report stream and its tallies."""

    def __init__(self, path: str, blob: bytes, frame_size: int) -> None:
        self.blob = memoryview(blob)
        self.frame_size = frame_size
        self.frames = len(blob) // frame_size
        self.sent_bytes = 0
        self.replied = 0
        self.notifications = 0
        self.errors: List[str] = []
        #: When a list, :meth:`receive` appends each reply's arrival time.
        self.arrivals: Optional[List[float]] = None
        # Downlink accounting of the first full pass over the stream
        # (replies 1..frames), which repeats exactly run to run.
        self.first_pass = {"downlink_messages": 0, "downlink_bytes": 0,
                           "notifications": 0}
        self.decoder = FrameDecoder()
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.sendall(encode_frame(FrameKind.HELLO, encode_hello()))
        self.sock.setblocking(False)

    @property
    def sent(self) -> int:
        """Reports whose last byte the kernel has accepted."""
        return self.sent_bytes // self.frame_size

    def send_up_to(self, allowed: int) -> None:
        """Hand the kernel reports until ``allowed`` have been sent."""
        want = allowed * self.frame_size - self.sent_bytes
        while want > 0:
            offset = self.sent_bytes % len(self.blob)
            chunk = self.blob[offset:offset + want]  # stops at the wrap
            try:
                done = self.sock.send(chunk)
            except BlockingIOError:
                return
            self.sent_bytes += done
            want -= done
            if done < len(chunk):
                return

    def receive(self) -> int:
        """Read what arrived; returns the number of replies in it."""
        try:
            chunk = self.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return 0
        if not chunk:
            self.errors.append("daemon closed the connection")
            return 0
        replies = 0
        for frame in self.decoder.feed(chunk):
            if frame.kind is FrameKind.REPLY:
                messages, notifications, charged = reply_summary(
                    frame.payload)
                replies += 1
                self.replied += 1
                self.notifications += notifications
                if self.replied <= self.frames:
                    first = self.first_pass
                    first["downlink_messages"] += messages - notifications
                    first["downlink_bytes"] += charged
                    first["notifications"] += notifications
            elif frame.kind is FrameKind.ERROR:
                self.errors.append(decode_error(frame.payload))
            else:
                self.errors.append("unexpected %s frame" % frame.kind.name)
        if self.arrivals is not None and replies:
            self.arrivals.extend([time.perf_counter()] * replies)
        return replies

    def close(self) -> None:
        self.sock.close()


def encode_streams(world: World,
                   connections: int) -> Tuple[List[bytes], int]:
    """Each connection's REQUEST frames as one blob, and the frame size.

    Vehicles are dealt round-robin to the connections and each
    vehicle's fixes are sent in trace order — the order
    ``run_simulation`` replays them in, so ``serve_prd`` and
    ``replay_prd`` give the handlers the same query sequence.
    """
    codec = WireCodec.from_sizes(world.sizes)
    vehicles = [world.traces[vehicle_id] for vehicle_id in world.user_ids]
    blobs = []
    sizes = set()
    for index in range(connections):
        frames = []
        for trace in vehicles[index::connections]:
            for sequence, sample in enumerate(trace):
                report = LocationReport(trace.vehicle_id, sequence,
                                        sample.position, sample.heading,
                                        sample.speed)
                frames.append(encode_frame(FrameKind.REQUEST,
                                           codec.encode_request(report),
                                           sample.time))
        sizes.update(len(frame) for frame in frames)
        blobs.append(b"".join(frames))
    if len(sizes) != 1:
        raise ValueError("REQUEST frames are not all one size: %r"
                         % sorted(sizes))
    return blobs, sizes.pop()


# ----------------------------------------------------------------------
# The two loops
# ----------------------------------------------------------------------
def _drain(conns: Sequence[Connection]) -> int:
    """Wait for every sent report's reply; returns how many never came."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while any(conn.replied < conn.sent for conn in conns):
        if time.perf_counter() > deadline or any(c.errors for c in conns):
            break
        readable, _, _ = select.select([c.sock for c in conns], [], [], 0.1)
        for conn in conns:
            if conn.sock in readable:
                conn.receive()
    return sum(conn.sent - conn.replied for conn in conns)


def closed_loop(conns: Sequence[Connection], seconds: float,
                window: int = 64) -> Dict[str, Any]:
    """Saturate the daemon for ``seconds``; replies per time slice.

    A new burst is sent only once half the window is free, so a burst
    is ~window/2 reports in one ``send`` — the generator's own CPU per
    report stays a small fraction of the daemon's.
    """
    socks = [conn.sock for conn in conns]
    slice_s = min(SLICE_S, seconds / 4.0)
    started = time.perf_counter()
    cpu_started = time.process_time()
    replied_at_start = sum(conn.replied for conn in conns)
    slices: List[Tuple[float, float, int]] = []  # (start, end, replies)
    slice_started, slice_replied = started, replied_at_start
    while True:
        now = time.perf_counter()
        if now - slice_started >= slice_s:
            replied = sum(conn.replied for conn in conns)
            slices.append((slice_started, now, replied - slice_replied))
            slice_started, slice_replied = now, replied
        if now - started >= seconds or any(conn.errors for conn in conns):
            break
        for conn in conns:
            if conn.sent - conn.replied <= window // 2:
                conn.send_up_to(conn.replied + window)
        readable, _, _ = select.select(socks, [], [], 0.05)
        for conn in conns:
            if conn.sock in readable:
                conn.receive()
    unanswered = _drain(conns)
    wall = time.perf_counter() - started
    reports = sum(conn.replied for conn in conns) - replied_at_start
    return {"reports": reports, "unanswered": unanswered, "wall_s": wall,
            "slices": slices,
            "loadgen_cpu_s": time.process_time() - cpu_started}


def open_loop(conns: Sequence[Connection], seconds: float,
              rate: float) -> Dict[str, Any]:
    """Offer ``rate`` reports/s for ``seconds``; latency from due time."""
    socks = [conn.sock for conn in conns]
    per_conn = rate / len(conns)
    interval = 1.0 / per_conn
    total = int(seconds * per_conn)
    base_sent = [conn.sent for conn in conns]
    for conn in conns:
        conn.arrivals = []
    late = 0
    max_late = 0.0
    started = time.perf_counter()
    cpu_started = time.process_time()
    while not any(conn.errors for conn in conns):
        elapsed = time.perf_counter() - started
        next_due = None
        for index, conn in enumerate(conns):
            offered = conn.sent - base_sent[index]
            due = min(total, int(elapsed * per_conn) + 1)
            if offered < due:
                conn.send_up_to(base_sent[index] + due)
                handed = conn.sent - base_sent[index] - offered
                # Lateness is taken when a burst reaches the kernel.
                if handed:
                    max_late = max(max_late, elapsed - offered * interval)
                    overdue = int((elapsed - LATE_S) * per_conn) + 1 - offered
                    late += max(0, min(handed, overdue))
                offered += handed
            if offered < total:
                due_at = offered * interval
                next_due = due_at if next_due is None else min(next_due,
                                                               due_at)
        if next_due is None:
            break
        timeout = max(0.0, next_due - (time.perf_counter() - started))
        readable, _, _ = select.select(socks, [], [], timeout)
        for conn in conns:
            if conn.sock in readable:
                conn.receive()
    send_wall = time.perf_counter() - started
    backlog = sum(conn.sent - conn.replied for conn in conns)
    # Replies still outstanding when the schedule ends are timed too.
    unanswered = _drain(conns)
    latencies: List[float] = []
    for conn in conns:
        assert conn.arrivals is not None
        latencies.extend(arrived - (started + k * interval)
                         for k, arrived in enumerate(conn.arrivals))
        conn.arrivals = None
    latencies.sort()
    return {"rate": rate, "reports": len(latencies),
            "unanswered": unanswered, "send_wall_s": send_wall,
            "backlog": backlog, "latencies_s": latencies, "late": late,
            "max_late_s": max_late,
            "loadgen_cpu_s": time.process_time() - cpu_started}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted series (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# The daemon child
# ----------------------------------------------------------------------
class DaemonProcess:
    """Launches ``daemon_main.py`` and speaks its line protocol."""

    def __init__(self, seed: int, sock_path: str, quick: bool, trace: bool,
                 cpu: Optional[int]) -> None:
        command = [sys.executable, str(HERE / "daemon_main.py"),
                   "--seed", str(seed), "--sock", sock_path,
                   "--quick", str(int(quick)), "--trace", str(int(trace))]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        self.sock_path = sock_path
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)

    def read_line(self, timeout_s: float) -> Dict[str, Any]:
        """The child's next JSON line; raises if it died or went silent."""
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError("daemon child sent nothing for %.0f s"
                               % timeout_s)
        line = stdout.readline()
        if not line:
            raise RuntimeError("daemon child exited with code %s"
                               % self.process.wait())
        message: Dict[str, Any] = json.loads(line)
        return message

    def cpu_s(self) -> float:
        """User + system CPU seconds of the child so far (``/proc``)."""
        with open("/proc/%d/stat" % self.process.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def start_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        message = self.read_line(30.0)
        if not message.get("tracing"):
            raise RuntimeError("daemon child did not start tracing: %r"
                               % (message,))

    def shutdown(self, conn: Connection) -> Dict[str, Any]:
        """Stop the daemon over the wire and collect its final report."""
        conn.sock.setblocking(True)
        conn.sock.sendall(encode_frame(FrameKind.SHUTDOWN, b""))
        report = self.read_line(30.0)
        self.process.wait(timeout=30.0)
        return report

    def kill(self) -> None:
        """Last resort for error paths: never leave the child behind."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        stdout = self.process.stdout
        if stdout is not None:
            stdout.close()
        try:
            os.unlink(self.sock_path)
        except FileNotFoundError:
            pass
