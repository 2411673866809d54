"""Typed protocol messages: construction invariants and downlink kinds."""

import pytest

from repro.geometry import Point, Rect
from repro.index import Pyramid
from repro.protocol.messages import (AlarmNotification, AlarmRecord,
                                     DOWNLINK_ALARM_PUSH, DOWNLINK_BITMAP,
                                     DOWNLINK_INVALIDATE, DOWNLINK_RECT,
                                     DOWNLINK_SAFE_PERIOD, InstallAlarmList,
                                     InstallSafePeriod, InstallSafeRegion,
                                     InvalidateState, LocationReport,
                                     RegionExitReport, downlink_kind)
from repro.saferegion import PyramidBitmap

CELL = Rect(0, 0, 1000, 1000)


def _bitmap():
    return PyramidBitmap.from_obstacles(Pyramid(CELL, height=1),
                                        [Rect(100, 100, 200, 200)])


class TestInstallSafeRegion:
    def test_rect_form(self):
        message = InstallSafeRegion(rect=Rect(0, 0, 10, 10))
        assert message.kind == DOWNLINK_RECT

    def test_bitmap_form(self):
        message = InstallSafeRegion(cell_ref=7, bitmap=_bitmap())
        assert message.kind == DOWNLINK_BITMAP

    def test_rejects_neither(self):
        with pytest.raises(ValueError):
            InstallSafeRegion()

    def test_rejects_both(self):
        with pytest.raises(ValueError):
            InstallSafeRegion(rect=Rect(0, 0, 1, 1), cell_ref=0,
                              bitmap=_bitmap())

    def test_rejects_half_bitmap(self):
        with pytest.raises(ValueError):
            InstallSafeRegion(cell_ref=3)


class TestDownlinkKind:
    def test_kinds(self):
        assert downlink_kind(
            InstallSafeRegion(rect=Rect(0, 0, 1, 1))) == DOWNLINK_RECT
        assert downlink_kind(
            InstallSafeRegion(cell_ref=0,
                              bitmap=_bitmap())) == DOWNLINK_BITMAP
        assert downlink_kind(
            InstallSafePeriod(expiry=9.0)) == DOWNLINK_SAFE_PERIOD
        assert downlink_kind(InstallAlarmList(
            cell=CELL, alarms=())) == DOWNLINK_ALARM_PUSH
        assert downlink_kind(InvalidateState()) == DOWNLINK_INVALIDATE

    def test_notification_is_in_band(self):
        assert downlink_kind(AlarmNotification(4)) is None


class TestRequests:
    def test_frozen(self):
        report = LocationReport(user_id=1, sequence=0,
                                position=Point(1, 2), heading=0.0,
                                speed=3.0)
        with pytest.raises(AttributeError):
            report.user_id = 2

    def test_exit_report_carries_same_fields(self):
        exit_report = RegionExitReport(user_id=1, sequence=5,
                                       position=Point(1, 2), heading=0.5,
                                       speed=3.0)
        assert exit_report.sequence == 5
        assert exit_report.position == Point(1, 2)
