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
from repro.protocol.wire import UPLINK_LOCATION_SIZE, MessageType, WireCodec
from repro.saferegion import PyramidBitmap

CODEC = WireCodec.from_sizes(MessageSizes())
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def _push(cell, alarms):
    return InstallAlarmList(
        cell=cell, alarms=tuple(AlarmRecord(alarm_id, region)
                                for alarm_id, region in alarms))


class TestLocationReport:
    def test_size_matches_cost_model(self):
        report = LocationReport(1, 1, Point(0, 0), 0.0, 0.0)
        assert len(CODEC.encode_request(report)) == UPLINK_LOCATION_SIZE

    @given(st.integers(min_value=0, max_value=2**32 - 1), coords, coords)
    def test_property_roundtrip(self, user_id, x, y):
        report = LocationReport(user_id, 0, Point(x, y), 0.5, 1.5)
        decoded = CODEC.decode_request(CODEC.encode_request(report))
        assert decoded.user_id == user_id
        assert decoded.position.x == x
        assert decoded.position.y == y


class TestRectRegion:
    def test_size_matches_cost_model(self):
        message = InstallSafeRegion(rect=Rect(0, 0, 1, 1))
        assert len(CODEC.encode_response(message)) == \
            CODEC.size_of_response(message)

    def test_type_confusion_rejected(self):
        """A safe-period payload under the rect type byte is refused."""
        data = bytearray(CODEC.encode_response(InstallSafePeriod(5.0)))
        data[0] = MessageType.RECT_SAFE_REGION
        with pytest.raises(ValueError):
            CODEC.decode_response(bytes(data))


class TestSafePeriod:
    def test_infinity_survives(self):
        data = CODEC.encode_response(InstallSafePeriod(expiry=math.inf))
        assert math.isinf(CODEC.decode_response(data).expiry)

    def test_size_matches_cost_model(self):
        message = InstallSafePeriod(expiry=1.0)
        assert len(CODEC.encode_response(message)) == \
            CODEC.size_of_response(message)


class TestAlarmPush:
    CELL = Rect(0, 0, 1000, 1000)
    ALARMS = [(5, Rect(10, 10, 50, 50)), (9, Rect(100, 200, 150, 260))]

    def test_empty_push(self):
        data = CODEC.encode_response(_push(self.CELL, []))
        decoded = CODEC.decode_response(data)
        assert decoded.cell == self.CELL
        assert decoded.alarms == ()

    def test_size_matches_cost_model(self):
        for count in (0, 1, 2):
            message = _push(self.CELL, self.ALARMS[:count])
            data = CODEC.encode_response(message)
            assert len(data) == CODEC.size_of_response(message)

    def test_truncated_payload_rejected(self):
        data = CODEC.encode_response(_push(self.CELL, self.ALARMS))
        with pytest.raises(ValueError):
            CODEC.decode_response(data[:-1])


class TestBitmapRegion:
    CELL = Rect(0, 0, 900, 900)
    OBSTACLES = [Rect(0, 600, 900, 890), Rect(0, 0, 250, 620)]

    def _bitmap(self, height=2):
        pyramid = Pyramid(self.CELL, fan_cols=3, fan_rows=3, height=height)
        bitmap = PyramidBitmap.from_obstacles(pyramid, self.OBSTACLES)
        return pyramid, bitmap

    @staticmethod
    def _roundtrip(cell_ref, bitmap, pyramid):
        data = CODEC.encode_response(
            InstallSafeRegion(cell_ref=cell_ref, bitmap=bitmap))
        return CODEC.decode_response(data, lambda ref: pyramid)

    def test_roundtrip(self):
        pyramid, bitmap = self._bitmap()
        decoded = self._roundtrip(17, bitmap, pyramid)
        assert decoded.cell_ref == 17
        assert decoded.bitmap.to_bitstring() == bitmap.to_bitstring()
        assert decoded.bitmap.bit_length() == bitmap.bit_length()

    def test_size_matches_cost_model(self):
        pyramid, bitmap = self._bitmap()
        message = InstallSafeRegion(cell_ref=0, bitmap=bitmap)
        assert len(CODEC.encode_response(message)) == \
            CODEC.size_of_response(message)

    def test_probe_equivalence_after_decode(self):
        """The decoded bitmap answers probes identically to the original."""
        import random
        pyramid, bitmap = self._bitmap(height=3)
        decoded = self._roundtrip(0, bitmap, pyramid).bitmap
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
        decoded = self._roundtrip(3, bitmap, pyramid).bitmap
        assert decoded.to_bitstring() == bitmap.to_bitstring()
