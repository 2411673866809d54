"""Property suite for the length-prefix frame codec.

The decoder's contract is byte-boundary independence: however a
stream of encoded frames is split into read chunks — including one
byte at a time — the decoder yields the identical frame sequence, and
a consumer that stops early leaves exactly the frames it did not take
buffered.  Hypothesis drives the frame contents and the split points;
dedicated cases pin the rejection paths (bad magic, unknown kind,
oversize length, truncated stream, trailing garbage).  The example
budgets go through ``tests/budget.py``: ``REPRO_DEEP=1`` draws five
times as many.
"""

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.protocol.framing import (FRAME_HEADER_SIZE, FRAME_MAGIC,
                                    MAX_FRAME_PAYLOAD, Frame, FrameDecoder,
                                    FrameKind, FramingError,
                                    TruncatedFrameError, decode_error,
                                    decode_hello, decode_reply,
                                    decode_stats, encode_error,
                                    encode_frame, encode_hello,
                                    encode_reply, encode_stats,
                                    reply_summary)
from repro.protocol.messages import (AlarmNotification, InstallSafePeriod,
                                     InstallSafeRegion, LocationReport)
from repro.protocol.wire import WireCodec
from ..budget import examples

kinds = st.sampled_from(list(FrameKind))
payloads = st.binary(min_size=0, max_size=200)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)

frames = st.builds(
    lambda kind, payload, time_s: Frame(kind, time_s, payload),
    kinds, payloads, times)


def feed_in_chunks(decoder, data, cuts):
    """Feed ``data`` split at the (sorted, deduplicated) cut offsets."""
    decoded = []
    previous = 0
    for cut in sorted(set(cuts)) + [len(data)]:
        if cut <= previous or cut > len(data):
            continue
        decoded.extend(decoder.feed(data[previous:cut]))
        previous = cut
    if previous < len(data):
        decoded.extend(decoder.feed(data[previous:]))
    return decoded


class TestRoundTrip:
    @given(frame_list=st.lists(frames, max_size=6), data=st.data())
    @settings(max_examples=examples(200, 1000), deadline=None)
    def test_any_chunking_yields_the_same_frames(self, frame_list, data):
        stream = b"".join(encode_frame(f.kind, f.payload, f.time_s)
                          for f in frame_list)
        cuts = data.draw(st.lists(
            st.integers(min_value=1, max_value=max(1, len(stream))),
            max_size=20))
        decoder = FrameDecoder()
        decoded = feed_in_chunks(decoder, stream, cuts)
        decoder.finish()  # clean boundary: nothing may be buffered
        assert decoded == frame_list

    @given(frame=frames)
    @settings(max_examples=examples(100, 500), deadline=None)
    def test_single_byte_feeds(self, frame):
        """The worst split — every byte its own read — still decodes."""
        stream = encode_frame(frame.kind, frame.payload, frame.time_s)
        decoder = FrameDecoder()
        decoded = []
        for index in range(len(stream)):
            decoded.extend(decoder.feed(stream[index:index + 1]))
            # Nothing may surface before the final payload byte.
            assert bool(decoded) == (index == len(stream) - 1)
        decoder.finish()
        assert decoded == [frame]

    @given(frame_list=st.lists(frames, min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=examples(200, 1000), deadline=None)
    def test_a_consumer_that_stops_early_leaves_the_rest_buffered(
            self, frame_list, data):
        """Stopping after ``taken`` frames keeps exactly the bytes of the
        frames not taken (and of any incomplete tail) buffered; feeding
        the rest of the stream yields the remaining frames."""
        encoded = [encode_frame(f.kind, f.payload, f.time_s)
                   for f in frame_list]
        stream = b"".join(encoded)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        taken = data.draw(st.integers(min_value=0,
                                      max_value=len(frame_list)))
        complete = 0
        while (complete < len(encoded)
               and len(b"".join(encoded[:complete + 1])) <= cut):
            complete += 1
        taken = min(taken, complete)
        decoder = FrameDecoder()
        iterator = decoder.frames(stream[:cut])
        first = [next(iterator) for _ in range(taken)]
        iterator.close()
        assert first == frame_list[:taken]
        consumed = len(b"".join(encoded[:taken]))
        assert decoder.buffered == cut - consumed
        rest = decoder.feed(stream[cut:])
        decoder.finish()
        assert first + rest == frame_list

    @given(frame_list=st.lists(frames, min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=examples(200, 1000), deadline=None)
    def test_bytes_fed_while_a_walk_is_open_are_kept(self, frame_list,
                                                     data):
        """A walk left open across the next feed loses nothing and
        repeats nothing, whether it is closed before or after the next
        walk runs: every frame comes out once, in stream order."""
        stream = b"".join(encode_frame(f.kind, f.payload, f.time_s)
                          for f in frame_list)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        taken = data.draw(st.integers(min_value=0, max_value=6))
        close_first = data.draw(st.booleans())
        decoder = FrameDecoder()
        first = decoder.frames(stream[:cut])
        decoded = [frame for _, frame in zip(range(taken), first)]
        second = decoder.frames(stream[cut:])
        if close_first:
            first.close()
        decoded.extend(second)
        decoded.extend(first)   # whatever the open walk still reaches
        decoder.finish()
        assert decoded == frame_list

    def test_a_frame_spread_over_many_reads_costs_linear_time(self):
        """Assembling a frame from small reads does work proportional to
        its size: a frame four times larger, read in the same small
        chunks, takes about four times as long, not sixteen (as
        re-joining the whole buffer on every read would)."""
        def assemble(size):
            stream = encode_frame(FrameKind.REQUEST, bytes(size))
            decoder = FrameDecoder()
            started = time.perf_counter()
            decoded = []
            for at in range(0, len(stream), 64):
                decoded.extend(decoder.frames(stream[at:at + 64]))
            elapsed = time.perf_counter() - started
            assert len(decoded) == 1 and decoder.buffered == 0
            return elapsed

        small = MAX_FRAME_PAYLOAD // 4
        ratio = min(assemble(MAX_FRAME_PAYLOAD) / assemble(small)
                    for _ in range(3))
        assert ratio < 8.0, ratio

    def test_split_at_every_boundary_of_a_two_frame_stream(self):
        first = encode_frame(FrameKind.REQUEST, b"x" * 32, 12.5)
        second = encode_frame(FrameKind.REPLY, b"y" * 7, 13.0)
        stream = first + second
        for cut in range(1, len(stream)):
            decoder = FrameDecoder()
            decoded = decoder.feed(stream[:cut])
            decoded.extend(decoder.feed(stream[cut:]))
            decoder.finish()
            assert [(f.kind, f.time_s, f.payload) for f in decoded] == [
                (FrameKind.REQUEST, 12.5, b"x" * 32),
                (FrameKind.REPLY, 13.0, b"y" * 7),
            ]


class TestRejection:
    def test_bad_magic_raises_immediately(self):
        stream = bytearray(encode_frame(FrameKind.HELLO, b""))
        stream[0] = 0x00
        with pytest.raises(FramingError, match="magic"):
            FrameDecoder().feed(bytes(stream))

    def test_unknown_kind_raises(self):
        stream = bytearray(encode_frame(FrameKind.HELLO, b""))
        stream[1] = 0x7F
        with pytest.raises(FramingError, match="unknown frame kind"):
            FrameDecoder().feed(bytes(stream))

    def test_oversized_length_rejected_before_buffering(self):
        header = struct.pack("<BBHIdQQ", FRAME_MAGIC,
                             int(FrameKind.REQUEST), 0,
                             MAX_FRAME_PAYLOAD + 1, 0.0, 0, 0)
        with pytest.raises(FramingError, match="cap"):
            FrameDecoder().feed(header)

    def test_frames_before_a_violation_come_out_first(self):
        """The daemon acts on each frame in stream order, so the ones a
        chunk completes ahead of a bad header are yielded before the
        header raises."""
        hello = encode_frame(FrameKind.HELLO, encode_hello())
        decoder = FrameDecoder()
        frames = decoder.frames(hello + hello + b"\x00" * 32)
        assert [next(frames).kind, next(frames).kind] \
            == [FrameKind.HELLO, FrameKind.HELLO]
        with pytest.raises(FramingError, match="magic"):
            next(frames)
        assert decoder.buffered == 32  # the frames served are dropped

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FramingError, match="cap"):
            encode_frame(FrameKind.PUSH, b"\0" * (MAX_FRAME_PAYLOAD + 1))

    @given(cut=st.integers(min_value=1, max_value=63))
    @settings(max_examples=examples(63, 315), deadline=None)
    def test_truncated_stream_raises_on_finish(self, cut):
        stream = encode_frame(FrameKind.REQUEST, b"z" * 32)
        assert len(stream) == FRAME_HEADER_SIZE + 32
        decoder = FrameDecoder()
        assert decoder.feed(stream[:cut]) == []
        assert decoder.buffered == cut
        with pytest.raises(TruncatedFrameError):
            decoder.finish()

    @given(garbage=st.binary(min_size=FRAME_HEADER_SIZE, max_size=64))
    @settings(max_examples=examples(100, 500), deadline=None)
    def test_garbage_never_yields_frames_silently(self, garbage):
        """Random bytes either raise or stay buffered as an incomplete
        frame — a full garbage 'frame' can only surface if it happens
        to spell a valid header, which requires the magic byte."""
        decoder = FrameDecoder()
        try:
            decoded = decoder.feed(garbage)
        except FramingError:
            return
        for frame in decoded:
            assert garbage[0] == FRAME_MAGIC
            assert isinstance(frame, Frame)


class TestHelloAndError:
    def test_hello_roundtrip(self):
        assert decode_hello(encode_hello()) == 2

    def test_hello_version_mismatch(self):
        with pytest.raises(FramingError, match="version"):
            decode_hello(struct.pack("<H", 99))

    def test_hello_size_mismatch(self):
        with pytest.raises(FramingError, match="bytes"):
            decode_hello(b"\x01")

    def test_error_roundtrip(self):
        assert decode_error(encode_error("queue overflow")) == \
            "queue overflow"


class TestReplyBatches:
    def setup_method(self):
        self.codec = WireCodec()

    def test_roundtrip_mixed_batch(self):
        reply = (AlarmNotification(alarm_id=7),
                 InstallSafeRegion(rect=Rect(0.0, 0.0, 10.0, 20.0)),
                 InstallSafePeriod(expiry=42.5),
                 AlarmNotification(alarm_id=9))
        payload = encode_reply(self.codec, reply, sender=3, timestamp=1.0)
        decoded = decode_reply(self.codec, payload)
        assert len(decoded) == 4
        assert decoded[0] == AlarmNotification(alarm_id=7)
        assert decoded[1].rect == Rect(0.0, 0.0, 10.0, 20.0)
        assert decoded[2].expiry == 42.5
        assert decoded[3] == AlarmNotification(alarm_id=9)

    def test_summary_matches_charged_bytes(self):
        """The summary's charged total is the codec's downlink cost —
        notifications are in-band and charge nothing."""
        region = InstallSafeRegion(rect=Rect(0.0, 0.0, 1.0, 1.0))
        period = InstallSafePeriod(expiry=9.0)
        reply = (AlarmNotification(alarm_id=1), region, period)
        payload = encode_reply(self.codec, reply, sender=1, timestamp=0.0)
        messages, notifications, charged = reply_summary(payload)
        assert messages == 3
        assert notifications == 1
        assert charged == (self.codec.size_of_response(region)
                           + self.codec.size_of_response(period))

    def test_empty_reply(self):
        payload = encode_reply(self.codec, (), sender=0, timestamp=0.0)
        assert payload == struct.pack("<H", 0)
        assert decode_reply(self.codec, payload) == ()
        assert reply_summary(payload) == (0, 0, 0)

    def test_truncated_entry_rejected(self):
        reply = (InstallSafePeriod(expiry=1.0),)
        payload = encode_reply(self.codec, reply, sender=0, timestamp=0.0)
        with pytest.raises(FramingError):
            decode_reply(self.codec, payload[:-1])

    def test_trailing_bytes_rejected(self):
        payload = encode_reply(self.codec, (), sender=0, timestamp=0.0)
        with pytest.raises(FramingError, match="trailing"):
            decode_reply(self.codec, payload + b"\x00")

    def test_unknown_tag_rejected(self):
        payload = bytearray(
            encode_reply(self.codec, (AlarmNotification(alarm_id=1),),
                         sender=0, timestamp=0.0))
        payload[2] = 0x55  # the entry's tag byte
        with pytest.raises(FramingError, match="tag"):
            decode_reply(self.codec, bytes(payload))

    def test_bitmap_without_resolver_rejected(self):
        from repro.index import Pyramid
        from repro.saferegion import PyramidBitmap

        pyramid = Pyramid(Rect(0.0, 0.0, 9.0, 9.0), height=2)
        bitmap = PyramidBitmap.from_obstacles(pyramid,
                                              [Rect(1.0, 1.0, 2.0, 2.0)])
        region = InstallSafeRegion(cell_ref=0, bitmap=bitmap)
        payload = encode_reply(self.codec, (region,), sender=0,
                               timestamp=0.0)
        with pytest.raises(FramingError, match="resolver"):
            decode_reply(self.codec, payload)

    def test_bitmap_resolver_receives_the_cell_ref(self):
        from repro.index import Pyramid
        from repro.protocol.wire import pack_cell_ref
        from repro.saferegion import PyramidBitmap

        base = Rect(0.0, 0.0, 9.0, 9.0)
        pyramid = Pyramid(base, height=2)
        bitmap = PyramidBitmap.from_obstacles(pyramid,
                                              [Rect(1.0, 1.0, 2.0, 2.0)])
        cell_ref = pack_cell_ref(3, 4)
        region = InstallSafeRegion(cell_ref=cell_ref, bitmap=bitmap)
        payload = encode_reply(self.codec, (region,), sender=0,
                               timestamp=0.0)
        seen = []

        def resolve(ref):
            seen.append(ref)
            return pyramid

        decoded = decode_reply(self.codec, payload, pyramid_for=resolve)
        assert seen == [cell_ref]
        assert decoded[0].cell_ref == cell_ref
        probe = decoded[0].bitmap.probe(Point(1.5, 1.5))
        assert probe == bitmap.probe(Point(1.5, 1.5))


class TestTraceEnvelope:
    """The trace context rides the fixed header: 64-bit trace and span
    ids, defaulting to 0 (untraced), surviving any chunking."""

    @given(kind=kinds, payload=payloads, time_s=times,
           trace_id=st.integers(min_value=0, max_value=2 ** 64 - 1),
           span_id=st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=examples(150, 750), deadline=None)
    def test_trace_pair_roundtrips(self, kind, payload, time_s,
                                   trace_id, span_id):
        stream = encode_frame(kind, payload, time_s, trace_id, span_id)
        decoder = FrameDecoder()
        frames_out = decoder.feed(stream)
        decoder.finish()
        assert frames_out == [Frame(kind, time_s, payload,
                                    trace_id, span_id)]

    def test_untraced_frames_default_to_zero(self):
        decoder = FrameDecoder()
        frame = decoder.feed(encode_frame(FrameKind.REQUEST, b"x", 1.0))[0]
        assert frame.trace_id == 0
        assert frame.span_id == 0


class TestStatsCodec:
    def test_roundtrip_is_canonical(self):
        snapshot = {"metrics": {"uplink_messages": 3},
                    "live": {"connections_open": 1},
                    "serving": {"batch_max": 64}}
        payload = encode_stats(snapshot)
        # Canonical JSON: sorted keys, no whitespace — two encodings of
        # equal mappings are byte-identical regardless of insertion
        # order.
        shuffled = {"serving": {"batch_max": 64},
                    "live": {"connections_open": 1},
                    "metrics": {"uplink_messages": 3}}
        assert payload == encode_stats(shuffled)
        assert b" " not in payload
        assert decode_stats(payload) == snapshot

    def test_non_object_payload_rejected(self):
        with pytest.raises(FramingError, match="JSON object"):
            decode_stats(b"[1, 2, 3]")

    def test_garbage_payload_rejected(self):
        with pytest.raises(FramingError, match="undecodable"):
            decode_stats(b"\xff\xfe not json")

    def test_oversized_snapshot_rejected(self):
        snapshot = {"blob": "x" * (MAX_FRAME_PAYLOAD + 1)}
        with pytest.raises(FramingError, match="frame cap"):
            encode_stats(snapshot)
