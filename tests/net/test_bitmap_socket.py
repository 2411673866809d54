"""Bitmap strategies over the socket engine, sanitized.

PBSR(h=5) and GBSR on the ``tiny`` world through a real Unix-domain
socket with the sanitizer on (the daemon then also asserts, per message,
that the charged size equals the encoded length).  On top of the
engine's own checks this pins the two properties the one-representation
bitmap promises a socket client: the bitmap it decodes probes exactly
like the one the server built, and nothing about the run's accounting
differs from the in-process run.  CI's ``sanitize-smoke`` job runs this
file under ``REPRO_SANITIZE=1``.
"""

import random

import pytest

from repro.engine import run_simulation
from repro.experiments import TINY, build_world
from repro.experiments.figures import make_pbsr_strategy
from repro.geometry import Point
from repro.net import run_network_simulation
from repro.protocol.messages import InstallSafeRegion
from repro.protocol.wire import WireCodec


@pytest.fixture(scope="module")
def world():
    return build_world(TINY)


def _bitmap_messages(messages):
    return [m for m in messages
            if isinstance(m, InstallSafeRegion) and m.bitmap is not None]


@pytest.mark.parametrize("height", (5, 1), ids=("pbsr5", "gbsr"))
def test_decoded_bitmaps_probe_like_the_servers(world, height, monkeypatch):
    sent, received, sizes = [], [], []
    encode = WireCodec.encode_response
    decode = WireCodec.decode_response

    def spying_encode(self, message, *args, **kwargs):
        data = encode(self, message, *args, **kwargs)
        if not sent or message is not sent[-1]:  # verify_wire encodes too
            sent.append(message)
        sizes.append((self.size_of_response(message), len(data)))
        return data

    def spying_decode(self, data, *args, **kwargs):
        message = decode(self, data, *args, **kwargs)
        received.append(message)
        return message

    monkeypatch.setattr(WireCodec, "encode_response", spying_encode)
    monkeypatch.setattr(WireCodec, "decode_response", spying_decode)
    over_socket = run_network_simulation(world, make_pbsr_strategy(height),
                                         sanitize=True)
    monkeypatch.undo()
    in_process = run_simulation(world, make_pbsr_strategy(height),
                                sanitize=True)

    assert over_socket.accuracy.perfect
    assert over_socket.metrics.counters() == in_process.metrics.counters()
    assert over_socket.metrics.triggers == in_process.metrics.triggers
    assert all(charged == encoded for charged, encoded in sizes)

    built = _bitmap_messages(sent)
    decoded = _bitmap_messages(received)
    assert len(built) == len(decoded) == in_process.metrics.downlink_messages
    rng = random.Random(height)
    for ours, theirs in zip(built, decoded):
        assert theirs.cell_ref == ours.cell_ref
        assert theirs.bitmap is not ours.bitmap
        assert theirs.bitmap.to_bitstring() == ours.bitmap.to_bitstring()
        assert theirs.bitmap.bit_length() == ours.bitmap.bit_length()
        base = ours.bitmap.pyramid.base
        assert theirs.bitmap.pyramid.base == base
        for _ in range(40):
            point = Point(rng.uniform(base.min_x, base.max_x),
                          rng.uniform(base.min_y, base.max_y))
            assert theirs.bitmap.probe(point) == ours.bitmap.probe(point)
