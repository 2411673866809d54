"""Wire-level distributed tracing: client span → daemon children → reply.

The tentpole acceptance test follows one uplink's trace id end to end:
the client assigns it and times the ``client_request`` root span, the
frame envelope carries the ``(trace, span)`` pair across the socket,
the daemon writes one child span per serving stage parented on the
client's span, and the REPLY envelope echoes the pair back.  The
span records must pass the same well-formedness validation ``repro
trace validate`` runs.
"""

import socket

from repro.net import DaemonThread, SocketTransport
from repro.protocol.framing import (FrameDecoder, FrameKind, encode_frame,
                                    encode_hello)
from repro.protocol.wire import WireCodec
from repro.telemetry import Telemetry
from repro.telemetry.spans import (ROOT_SPAN_ID, SERVER_SPAN_IDS,
                                   SPAN_CLIENT_REQUEST, STATUS_OK,
                                   make_trace_id, span_counts,
                                   validate_spans)

from .conftest import make_daemon, make_report


def _spans(telemetry):
    return [record for record in telemetry.sink.records
            if record["type"] == "span"]


class TestTraceFollowThrough:
    def test_one_uplink_traced_end_to_end(self, sock_path):
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        with DaemonThread(daemon, path=sock_path):
            transport = SocketTransport.connect_unix(
                sock_path, telemetry=telemetry, client_id=7)
            transport.request(make_report(), 0.0)
            transport.close()

        spans = _spans(telemetry)
        # One root + three server stages, one record each; the root
        # finishes last.
        assert len(spans) == 4
        assert spans[-1]["name"] == SPAN_CLIENT_REQUEST

        roots = [record for record in spans
                 if record["name"] == SPAN_CLIENT_REQUEST]
        assert len(roots) == 1
        root = roots[0]
        trace_id = root["trace"]
        assert trace_id == make_trace_id(7, 1)
        assert root["span"] == ROOT_SPAN_ID
        assert root["parent"] == 0

        # Every daemon child span carries the client's trace id and is
        # parented on the client's root span.
        children = [record for record in spans if record is not root]
        assert {record["name"] for record in children} == \
            set(SERVER_SPAN_IDS)
        for record in children:
            assert record["trace"] == trace_id
            assert record["parent"] == ROOT_SPAN_ID
            assert record["span"] == SERVER_SPAN_IDS[record["name"]]

        # The stream passes the `repro trace validate` span check, and
        # every span ended ok.
        events = telemetry.sink.records
        assert validate_spans(events) == []
        counts = span_counts(events)
        assert counts == {(name, STATUS_OK): 1
                          for name in [SPAN_CLIENT_REQUEST,
                                       *SERVER_SPAN_IDS]}

    def test_reply_envelope_echoes_the_trace_pair(self, sock_path):
        """A raw client stamps a trace pair on its REQUEST; the REPLY
        frame must come back with the same pair in its envelope."""
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        codec = WireCodec()
        trace_id = make_trace_id(3, 1)
        with DaemonThread(daemon, path=sock_path):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.settimeout(10.0)
            client.connect(sock_path)
            try:
                client.sendall(
                    encode_frame(FrameKind.HELLO, encode_hello())
                    + encode_frame(FrameKind.REQUEST,
                                   codec.encode_request(make_report()),
                                   0.0, trace_id, ROOT_SPAN_ID))
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    chunk = client.recv(1 << 16)
                    assert chunk, "server closed before replying"
                    frames.extend(decoder.feed(chunk))
                reply = frames[0]
                assert reply.kind is FrameKind.REPLY
                assert reply.trace_id == trace_id
                assert reply.span_id == ROOT_SPAN_ID
            finally:
                client.close()

    def test_untraced_uplinks_emit_no_server_spans(self, sock_path):
        """trace_id 0 means untraced: a traced daemon serving an
        untraced client (e.g. a load generator) writes no span record;
        its stages still reach the stage histograms."""
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        with DaemonThread(daemon, path=sock_path):
            # An untraced client: telemetry defaults to DISABLED, so
            # its frames carry trace_id 0.
            transport = SocketTransport.connect_unix(sock_path)
            transport.request(make_report(), 0.0)
            transport.close()
        assert _spans(telemetry) == []
        for name in ("decode_cost_us", "handle_cost_us",
                     "reply_encode_cost_us"):
            assert telemetry.registry.histogram(name).count == 1

    def test_trace_ids_are_unique_per_transport(self, sock_path):
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        with DaemonThread(daemon, path=sock_path):
            transport = SocketTransport.connect_unix(
                sock_path, telemetry=telemetry, client_id=1)
            for sequence in range(3):
                transport.request(make_report(sequence=sequence),
                                  float(sequence))
            transport.close()
        roots = [record for record in _spans(telemetry)
                 if record["name"] == SPAN_CLIENT_REQUEST]
        traces = [record["trace"] for record in roots]
        assert traces == [make_trace_id(1, counter)
                          for counter in (1, 2, 3)]
        assert validate_spans(telemetry.sink.records) == []
