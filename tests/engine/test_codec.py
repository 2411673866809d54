"""Round-trip tests for the wire-format codec, and its consistency with
the byte-size constants the simulation charges."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MessageSizes
from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.protocol.messages import (AlarmRecord, InstallAlarmList,
                                     InstallSafePeriod, InstallSafeRegion,
                                     LocationReport)
from repro.protocol.wire import (UPLINK_LOCATION_SIZE, MessageType,
                                 WireCodec, decode_alarm_push,
                                 decode_bitmap_region, decode_location,
                                 decode_rect_region, decode_safe_period,
                                 encode_alarm_push, encode_bitmap_region,
                                 encode_location, encode_rect_region,
                                 encode_safe_period, peek_type)
from repro.saferegion import PyramidBitmap

CODEC = WireCodec.from_sizes(MessageSizes())
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestLocationReport:
    def test_roundtrip(self):
        report = LocationReport(user_id=42, sequence=7,
                                position=Point(123.5, -88.25),
                                heading=1.25, speed=13.5)
        decoded = decode_location(encode_location(report))
        assert decoded.user_id == 42
        assert decoded.sequence == 7
        assert decoded.position == Point(123.5, -88.25)
        assert decoded.heading == pytest.approx(1.25)
        assert decoded.speed == pytest.approx(13.5)

    def test_size_matches_cost_model(self):
        report = LocationReport(1, 1, Point(0, 0), 0.0, 0.0)
        assert len(encode_location(report)) == UPLINK_LOCATION_SIZE

    @given(st.integers(min_value=0, max_value=2**32 - 1), coords, coords)
    def test_property_roundtrip(self, user_id, x, y):
        report = LocationReport(user_id, 0, Point(x, y), 0.5, 1.5)
        decoded = decode_location(encode_location(report))
        assert decoded.user_id == user_id
        assert decoded.position.x == x
        assert decoded.position.y == y


class TestRectRegion:
    def test_roundtrip(self):
        rect = Rect(1.5, -2.5, 10.0, 20.0)
        data = encode_rect_region(rect, sender=3, timestamp=99.5)
        assert peek_type(data) is MessageType.RECT_SAFE_REGION
        assert decode_rect_region(data) == rect

    def test_size_matches_cost_model(self):
        data = encode_rect_region(Rect(0, 0, 1, 1))
        assert len(data) == CODEC.size_of_response(
            InstallSafeRegion(rect=Rect(0, 0, 1, 1)))

    def test_type_confusion_rejected(self):
        data = encode_safe_period(5.0)
        with pytest.raises(ValueError):
            decode_rect_region(data)


class TestSafePeriod:
    def test_roundtrip(self):
        data = encode_safe_period(123.456)
        assert decode_safe_period(data) == pytest.approx(123.456)
        assert peek_type(data) is MessageType.SAFE_PERIOD

    def test_infinity_survives(self):
        assert math.isinf(decode_safe_period(encode_safe_period(math.inf)))

    def test_size_matches_cost_model(self):
        assert len(encode_safe_period(1.0)) == CODEC.size_of_response(
            InstallSafePeriod(expiry=1.0))


class TestAlarmPush:
    CELL = Rect(0, 0, 1000, 1000)
    ALARMS = [(5, Rect(10, 10, 50, 50)), (9, Rect(100, 200, 150, 260))]

    def test_roundtrip(self):
        data = encode_alarm_push(self.CELL, self.ALARMS)
        cell, alarms = decode_alarm_push(data)
        assert cell == self.CELL
        assert alarms == self.ALARMS

    def test_empty_push(self):
        data = encode_alarm_push(self.CELL, [])
        cell, alarms = decode_alarm_push(data)
        assert cell == self.CELL
        assert alarms == []

    def test_size_matches_cost_model(self):
        for count in (0, 1, 2):
            data = encode_alarm_push(self.CELL, self.ALARMS[:count])
            message = InstallAlarmList(
                cell=self.CELL,
                alarms=tuple(AlarmRecord(alarm_id, region)
                             for alarm_id, region in self.ALARMS[:count]))
            assert len(data) == CODEC.size_of_response(message)

    def test_truncated_payload_rejected(self):
        data = encode_alarm_push(self.CELL, self.ALARMS)
        with pytest.raises(ValueError):
            decode_alarm_push(data[:-1])


class TestBitmapRegion:
    CELL = Rect(0, 0, 900, 900)
    OBSTACLES = [Rect(0, 600, 900, 890), Rect(0, 0, 250, 620)]

    def _bitmap(self, height=2):
        pyramid = Pyramid(self.CELL, fan_cols=3, fan_rows=3, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, self.OBSTACLES)
        return pyramid, bitmap

    def test_roundtrip(self):
        pyramid, bitmap = self._bitmap()
        data = encode_bitmap_region(cell_ref=17, bitmap=bitmap)
        cell_ref, decoded = decode_bitmap_region(data, pyramid)
        assert cell_ref == 17
        assert decoded.to_bitstring() == bitmap.to_bitstring()
        assert decoded.bit_length() == bitmap.bit_length()

    def test_size_matches_cost_model(self):
        pyramid, bitmap = self._bitmap()
        data = encode_bitmap_region(0, bitmap)
        assert len(data) == CODEC.size_of_response(
            InstallSafeRegion(cell_ref=0, bitmap=bitmap))

    def test_probe_equivalence_after_decode(self):
        """The decoded bitmap answers probes identically to the original."""
        import random
        pyramid, bitmap = self._bitmap(height=3)
        data = encode_bitmap_region(0, bitmap)
        _, decoded = decode_bitmap_region(data, pyramid)
        rng = random.Random(8)
        for _ in range(200):
            p = Point(rng.uniform(0, 900), rng.uniform(0, 900))
            assert decoded.probe(p) == bitmap.probe(p)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=800),
        st.floats(min_value=0, max_value=800),
        st.floats(min_value=10, max_value=300)), max_size=4))
    def test_property_roundtrip(self, raw):
        obstacles = [Rect(x, y, x + s, y + s) for x, y, s in raw]
        pyramid = Pyramid(self.CELL, fan_cols=3, fan_rows=3, height=2)
        bitmap = PyramidBitmap.from_obstacles(pyramid, obstacles)
        data = encode_bitmap_region(3, bitmap)
        _, decoded = decode_bitmap_region(data, pyramid)
        assert decoded.to_bitstring() == bitmap.to_bitstring()
