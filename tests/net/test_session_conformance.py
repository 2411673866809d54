"""The daemon answers every frame the way the session automaton says.

Every live state (AWAIT_HELLO, READY) × every ``FrameKind`` plus one
kind byte no member has × three frame shapes — well-formed, truncated
(the stream half-closed mid-payload) and an oversized length prefix —
is sent to a fresh daemon over a Unix-domain socket.  The
expected answer is computed from ``protocol/spec.py`` alone: each
accepted uplink moves the state and is answered (REQUEST with REPLY,
STATS with STATS); the first frame without a row, or any framing
violation, is answered with ERROR, which is the last frame before the
daemon closes the connection.  Every frame the daemon sends must have
a server-to-client row from the state it was sent in.

READY is reached with HELLO and three REQUESTs in the same write as
the case frame, so a rejected frame, and a SHUTDOWN, arrive behind
work not yet answered: their REPLYs must go out first.  The answers
come in exactly the order the spec gives.  A well-formed case frame
is followed by a STATS probe, which reads back the state the frame
left (answered in READY, rejected by name in AWAIT_HELLO, ignored
after an ERROR).  Throughout, a second connection keeps being served, and when
the daemon closes no task, fd or span may leak and its loop may not
have stalled (``loop_stall_watch``); a failed close is raised by
leaving the ``DaemonThread`` block.
"""

import itertools
import os
import socket
import struct

import pytest

from repro.net import DaemonThread, SocketTransport
from repro.protocol.framing import (FRAME_HEADER_SIZE, MAX_FRAME_PAYLOAD,
                                    FrameDecoder, FrameKind, decode_error,
                                    encode_error, encode_frame,
                                    encode_hello)
from repro.protocol.spec import (CLIENT_TRANSITIONS, DIR_SERVER_TO_CLIENT,
                                 STATE_AWAIT_HELLO, STATE_READY,
                                 session_next_state)
from repro.telemetry import Telemetry
from repro.telemetry.spans import validate_spans

from .conftest import make_daemon, make_report, open_fds

#: A kind byte that names no ``FrameKind`` member.
UNKNOWN_KIND = max(FrameKind) + 1

KINDS = list(FrameKind) + [UNKNOWN_KIND]
SHAPES = ("well-formed", "truncated", "oversized")
CASES = list(itertools.product((STATE_AWAIT_HELLO, STATE_READY), KINDS,
                               SHAPES))

#: REQUESTs queued in READY ahead of the case frame.
PRIOR_REQUESTS = 3

#: The daemon's answer to an accepted uplink, where it sends one.
ANSWERS = {FrameKind.REQUEST: FrameKind.REPLY,
           FrameKind.STATS: FrameKind.STATS}


def _name(kind):
    return kind.name if isinstance(kind, FrameKind) else "kind %d" % kind


def _case_id(case):
    state, kind, shape = case
    return "%s-%s-%s" % (state, _name(kind).replace(" ", ""), shape)


def _payload(kind, codec):
    if kind is FrameKind.HELLO:
        return encode_hello()
    if kind is FrameKind.REQUEST:
        return codec.encode_request(make_report())
    if kind is FrameKind.ERROR:
        return encode_error("a client cannot end the session this way")
    return b"\x00\x00"


def _case_frame(kind, shape, codec, trace_id):
    """The bytes of the case frame in the given shape."""
    payload = _payload(kind, codec)
    if shape == "oversized":
        header = bytearray(encode_frame(kind, b"", 1.0))
        # The u32 length follows the magic, kind and reserved fields.
        struct.pack_into("<I", header, 4, MAX_FRAME_PAYLOAD + 1)
        return bytes(header)
    frame = encode_frame(kind, payload, 1.0, trace_id, 1)
    if shape == "truncated":
        return frame[:FRAME_HEADER_SIZE + len(payload) // 2]
    return frame


def spec_answer(uplinks):
    """``[(state, answer, uplink)]`` the spec prescribes for ``uplinks``.

    Each answer is sent in ``state`` in response to ``uplink``; ``None``
    in ``uplinks`` is a framing violation.  Nothing after the first
    ERROR is answered: ERROR leads to the terminal CLOSING state.
    """
    state = STATE_AWAIT_HELLO
    answers = []
    for kind in uplinks:
        next_state = (None if kind is None
                      else CLIENT_TRANSITIONS.get((state, kind)))
        if next_state is None:
            answers.append((state, FrameKind.ERROR, kind))
            return answers
        state = next_state
        if kind in ANSWERS:
            answers.append((state, ANSWERS[kind], kind))
    return answers


def _read_to_close(client, decoder):
    frames = []
    while True:
        chunk = client.recv(1 << 16)
        if not chunk:
            decoder.finish()
            return frames
        frames.extend(decoder.feed(chunk))


def assert_spec_answer(label, uplinks, received):
    """``received`` is what the spec answers to ``uplinks``."""
    expected = spec_answer(uplinks)
    sent = [frame.kind for frame in received]
    wanted = [answer for _, answer, _ in expected]
    assert sent == wanted, (
        "%s: the spec answers %s, the daemon sent %s"
        % (label, ", ".join(map(_name, wanted)) or "nothing",
           ", ".join(map(_name, sent)) or "nothing"))
    for state, answer, _ in expected:
        assert session_next_state(state, answer, DIR_SERVER_TO_CLIENT) \
            is not None, (label, state, answer)
    if FrameKind.ERROR not in wanted:
        return
    # ERROR is the last frame (the spec answers nothing after it).
    state, _, rejected = expected[-1]
    if isinstance(rejected, FrameKind):
        # A frame without a row: the reason names the kind and state.
        reason = decode_error(received[-1].payload)
        assert rejected.name in reason and state in reason, reason


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open fds through /proc")
@pytest.mark.parametrize("case", CASES, ids=_case_id)
@pytest.mark.usefixtures("loop_stall_watch")
def test_frame_gets_the_spec_answer(case, sock_path):
    state, kind, shape = case
    shutdown = kind is FrameKind.SHUTDOWN and shape == "well-formed"
    fds_before = open_fds()
    telemetry = Telemetry.capture()
    daemon = make_daemon(telemetry=telemetry)
    codec = daemon.codec
    prefix = []
    if state == STATE_READY:
        prefix = [FrameKind.HELLO] + [FrameKind.REQUEST] * PRIOR_REQUESTS
    head = b"".join(
        encode_frame(prior, _payload(prior, codec), 1.0, trace_id, 1)
        for trace_id, prior in enumerate(prefix, start=1))
    case_bytes = _case_frame(kind, shape, codec, len(prefix) + 1)
    uplinks = prefix + [kind if shape == "well-formed" else None]
    with DaemonThread(daemon, path=sock_path) as hosted:
        bystander = SocketTransport.connect_unix(sock_path, codec)
        bystander.request(make_report(user_id=2), 1.0)
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(10.0)
        client.connect(sock_path)
        decoder = FrameDecoder()
        received = []
        if shutdown:
            # The daemon stops on SHUTDOWN, after answering the
            # requests before it in the same write.
            client.sendall(head + case_bytes)
        else:
            if shape == "well-formed":
                case_bytes += encode_frame(FrameKind.STATS, b"", 1.0)
                uplinks.append(FrameKind.STATS)
            client.sendall(head + case_bytes)
            client.shutdown(socket.SHUT_WR)
        received += _read_to_close(client, decoder)
        client.close()
        assert_spec_answer("%s %s %s" % (state, _name(kind), shape),
                           uplinks, received)
        if shutdown:
            assert [frame.kind for frame in received] \
                == [FrameKind.REPLY] * prefix.count(FrameKind.REQUEST)
            hosted._thread.join(timeout=10.0)
            assert not hosted._thread.is_alive(), "SHUTDOWN did not stop"
        else:
            bystander.request(make_report(user_id=2), 2.0)
        bystander.close()

    assert daemon._conn_tasks == set()
    assert validate_spans(telemetry.sink.records) == []
    registry = telemetry.registry
    assert registry.counter("net_connections_opened").value \
        == registry.counter("net_connections_closed").value == 2
    assert open_fds() == fds_before
