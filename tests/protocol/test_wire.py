"""Wire codec: round-trips through the one codec, and the sizing
property the accounting rests on — ``size_of_*`` equals the length of
the actual encoding for every message the protocol can ship."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.protocol import wire
from repro.protocol.messages import (AlarmNotification, AlarmRecord,
                                     InstallAlarmList, InstallSafePeriod,
                                     InstallSafeRegion, InvalidateState,
                                     LocationReport, RegionExitReport)
from repro.protocol.wire import (EXIT_FLAG, MessageType, WireCodec,
                                 pack_cell_ref, unpack_cell_ref)
from repro.saferegion import PyramidBitmap

CELL = Rect(0, 0, 1000, 1000)
CODEC = WireCodec()


def _records(alarms):
    return tuple(AlarmRecord(alarm_id, region) for alarm_id, region in alarms)


def _entries(message):
    return [(record.alarm_id, record.region) for record in message.alarms]


class TestUplinkRoundTrip:
    def test_location_report(self):
        report = LocationReport(user_id=9, sequence=41,
                                position=Point(123.5, 67.25),
                                heading=1.25, speed=13.5)
        decoded = CODEC.decode_request(CODEC.encode_request(report))
        assert isinstance(decoded, LocationReport)
        assert decoded.user_id == 9 and decoded.sequence == 41
        assert decoded.position == Point(123.5, 67.25)
        assert decoded.heading == pytest.approx(1.25)
        assert decoded.speed == pytest.approx(13.5)

    def test_exit_report_flag(self):
        report = RegionExitReport(user_id=9, sequence=41,
                                  position=Point(1.0, 2.0),
                                  heading=0.0, speed=0.0)
        encoded = CODEC.encode_request(report)
        assert len(encoded) == wire.UPLINK_LOCATION_SIZE
        decoded = CODEC.decode_request(encoded)
        assert isinstance(decoded, RegionExitReport)
        assert decoded.sequence == 41  # flag stripped on decode

    def test_sequence_overflow_rejected(self):
        report = LocationReport(user_id=1, sequence=EXIT_FLAG,
                                position=Point(0, 0), heading=0.0,
                                speed=0.0)
        with pytest.raises(ValueError):
            CODEC.encode_request(report)

    @pytest.mark.parametrize("length", [wire.UPLINK_LOCATION_SIZE - 1,
                                        wire.UPLINK_LOCATION_SIZE + 1])
    def test_payload_of_the_wrong_length_is_a_value_error(self, length):
        with pytest.raises(ValueError, match="uplink payload of %d bytes"
                           % length):
            CODEC.decode_request(b"x" * length)


class TestCellRef:
    def test_round_trip(self):
        assert unpack_cell_ref(pack_cell_ref(12, 7)) == (12, 7)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pack_cell_ref(-1, 0)
        with pytest.raises(ValueError):
            pack_cell_ref(0, 1 << 32)


class TestDownlinkRoundTrip:
    def test_rect(self):
        rect = Rect(10.5, 20.25, 30.75, 40.125)
        data = CODEC.encode_response(InstallSafeRegion(rect=rect),
                                     sender=3, timestamp=7.0)
        assert data[0] == MessageType.RECT_SAFE_REGION
        assert CODEC.decode_response(data).rect == rect

    def test_safe_period(self):
        data = CODEC.encode_response(InstallSafePeriod(expiry=123.5))
        assert data[0] == MessageType.SAFE_PERIOD
        assert CODEC.decode_response(data).expiry == 123.5

    def test_invalidate(self):
        data = CODEC.encode_response(InvalidateState(), sender=5,
                                     timestamp=1.0)
        assert len(data) == wire.DOWNLINK_HEADER_SIZE
        assert isinstance(CODEC.decode_response(data), InvalidateState)

    def test_alarm_push(self):
        alarms = [(4, Rect(1, 2, 3, 4)), (9, Rect(5, 6, 7, 8))]
        decoded = CODEC.decode_response(CODEC.encode_response(
            InstallAlarmList(cell=CELL, alarms=_records(alarms))))
        assert decoded.cell == CELL
        assert _entries(decoded) == alarms

    def test_bitmap(self):
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=2)
        bitmap = PyramidBitmap.from_obstacles(
            pyramid, [Rect(100, 100, 260, 260), Rect(700, 600, 800, 790)])
        data = CODEC.encode_response(InstallSafeRegion(
            cell_ref=pack_cell_ref(2, 5), bitmap=bitmap))
        message = CODEC.decode_response(data, lambda cell_ref: pyramid)
        decoded = message.bitmap
        assert unpack_cell_ref(message.cell_ref) == (2, 5)
        # decisions are what travels: every probe must agree
        for x in range(50, 1000, 75):
            for y in range(50, 1000, 75):
                point = Point(float(x), float(y))
                assert decoded.probe(point)[0] == bitmap.probe(point)[0]

    def test_peek_type(self):
        """The leading type byte picks the message the decoder builds."""
        data = CODEC.encode_response(InstallSafePeriod(expiry=1.0))
        assert MessageType(data[0]) is MessageType.SAFE_PERIOD
        assert isinstance(CODEC.decode_response(data), InstallSafePeriod)


class TestLengthEscape:
    """Payloads of 0xFFFF bytes or more escape their u16 length."""

    def test_bitmap_beyond_the_u16_length_round_trips(self):
        # A thin strip through every level-5 column leaves no safe cell
        # above the finest level: a full 3x3 split of height 6.
        pyramid = Pyramid(CELL, fan_cols=3, fan_rows=3, height=6)
        width = CELL.width / 3 ** 5
        strips = [Rect((i + 0.5) * width - 0.01, 0,
                       (i + 0.5) * width + 0.01, 1000) for i in range(243)]
        bitmap = PyramidBitmap.from_obstacles(pyramid, strips)
        message = InstallSafeRegion(cell_ref=pack_cell_ref(3, 4),
                                    bitmap=bitmap)
        codec = WireCodec()
        data = codec.encode_response(message, sender=2, timestamp=5.0)
        assert len(data) > 0xFFFF
        assert codec.size_of_response(message) == len(data)
        resolved = []

        def resolve(cell_ref):
            resolved.append(cell_ref)
            return pyramid

        decoded = codec.decode_response(data, resolve)
        assert resolved == [pack_cell_ref(3, 4)]
        assert decoded.cell_ref == pack_cell_ref(3, 4)
        assert decoded.bitmap.to_bitstring() == bitmap.to_bitstring()

    @pytest.mark.parametrize("payload, escaped", [(0xFFFE, False),
                                                  (0xFFFF, True),
                                                  (0x10000, True)])
    def test_escape_starts_at_0xffff(self, payload, escaped):
        # One alarm whose alert record pads the payload to ``payload``.
        alert = payload - wire.RECT_PAYLOAD_SIZE - wire.ALARM_FIXED_SIZE
        codec = WireCodec(alert_payload_bytes=alert)
        message = InstallAlarmList(
            cell=CELL, alarms=(AlarmRecord(alarm_id=8,
                                           region=Rect(1, 2, 3, 4)),))
        data = codec.encode_response(message)
        header = wire.DOWNLINK_HEADER_SIZE + (4 if escaped else 0)
        assert len(data) == codec.size_of_response(message) \
            == header + payload
        decoded = codec.decode_response(data)
        assert decoded.cell == CELL
        assert _entries(decoded) == [(8, Rect(1, 2, 3, 4))]

    def test_short_payload_keeps_the_16_byte_header(self):
        assert len(CODEC.encode_response(InstallSafePeriod(expiry=1.0))) \
            == wire.DOWNLINK_HEADER_SIZE + wire.SAFE_PERIOD_PAYLOAD_SIZE

    def test_non_canonical_escape_rejected(self):
        plain = CODEC.encode_response(InstallSafePeriod(expiry=1.0))
        escaped = (plain[:2] + (0xFFFF).to_bytes(2, "little")
                   + plain[4:16] + (8).to_bytes(4, "little") + plain[16:])
        with pytest.raises(ValueError, match="fits the 16-bit field"):
            CODEC.decode_response(escaped)


def _random_messages(rng):
    """A representative random sample of every sized payload kind."""
    def rect():
        x, y = rng.uniform(0, 3000), rng.uniform(0, 3000)
        return Rect(x, y, x + rng.uniform(1, 900), y + rng.uniform(1, 900))

    messages = [InstallSafePeriod(expiry=rng.uniform(0, 1e4)),
                InvalidateState(),
                AlarmNotification(rng.randrange(1000)),
                InstallSafeRegion(rect=rect())]
    messages.append(InstallAlarmList(
        cell=rect(),
        alarms=tuple(AlarmRecord(alarm_id=rng.randrange(10_000),
                                 region=rect())
                     for _ in range(rng.randrange(0, 9)))))
    pyramid = Pyramid(CELL, fan_cols=rng.choice((2, 3)),
                      fan_rows=rng.choice((2, 3)),
                      height=rng.randrange(1, 5))
    bitmap = PyramidBitmap.from_obstacles(
        pyramid, [Rect(100, 100, 200, 200).translated(
            rng.uniform(0, 700), rng.uniform(0, 700))
            for _ in range(rng.randrange(0, 4))])
    messages.append(InstallSafeRegion(cell_ref=pack_cell_ref(1, 1),
                                      bitmap=bitmap))
    return messages


class TestSizingProperty:
    """Accounted size == serialized length, for every payload kind."""

    def test_request_size_matches_encoding(self):
        codec = WireCodec()
        report = LocationReport(user_id=1, sequence=2,
                                position=Point(3, 4), heading=0.5,
                                speed=6.0)
        assert codec.size_of_request(report) == \
            len(codec.encode_request(report))

    @pytest.mark.parametrize("seed", range(8))
    def test_response_size_matches_encoding(self, seed):
        codec = WireCodec()
        rng = random.Random(seed)
        for message in _random_messages(rng):
            encoded = codec.encode_response(message, sender=7,
                                            timestamp=11.0)
            assert codec.size_of_response(message) == len(encoded), message

    def test_from_sizes_rejects_drifted_accounting(self):
        from repro.engine.network import MessageSizes
        with pytest.raises(ValueError):
            WireCodec.from_sizes(
                MessageSizes(alarm_entry=wire.ALARM_FIXED_SIZE - 1))

    def test_from_sizes_alert_payload(self):
        from repro.engine.network import MessageSizes
        codec = WireCodec.from_sizes(MessageSizes(alarm_entry=100))
        assert codec.alert_payload_bytes == 100 - wire.ALARM_FIXED_SIZE
