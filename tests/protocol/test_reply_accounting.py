"""A REPLY frame carries exactly the downlink bytes its reply is charged.

The daemon's ``verify_wire`` check compares the charged total that
:func:`~repro.protocol.framing.reply_summary` reads off a REPLY payload
with the sum the transport charged, ``size_of_response`` over the sized
messages.  The property below holds the framing to that sum for drawn
replies of every response kind, mixed with any others; the seeded slip
in ``tests/net/test_daemon.py`` (``TestFramedAccounting``) shows the
daemon's check fires when it does not hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import Pyramid
from repro.protocol.framing import encode_reply, reply_summary
from repro.protocol.messages import (AlarmNotification, AlarmRecord,
                                     InstallAlarmList, InstallSafePeriod,
                                     InstallSafeRegion, InvalidateState,
                                     downlink_kind)
from repro.protocol.wire import WireCodec, pack_cell_ref
from repro.saferegion import PyramidBitmap

from ..budget import examples

CELL = Rect(0.0, 0.0, 1000.0, 1000.0)

coordinates = st.floats(0.0, 3000.0, allow_nan=False)
sides = st.floats(1.0, 900.0, allow_nan=False)
ids = st.integers(0, 2 ** 63 - 1)


@st.composite
def rects(draw, within=None):
    if within is not None:
        x = draw(st.floats(within.min_x, within.max_x - 1.0))
        y = draw(st.floats(within.min_y, within.max_y - 1.0))
        return Rect(x, y, min(within.max_x, x + draw(sides)),
                    min(within.max_y, y + draw(sides)))
    x, y = draw(coordinates), draw(coordinates)
    return Rect(x, y, x + draw(sides), y + draw(sides))


@st.composite
def bitmap_regions(draw):
    pyramid = Pyramid(CELL, fan_cols=draw(st.sampled_from((2, 3))),
                      fan_rows=draw(st.sampled_from((2, 3))),
                      height=draw(st.integers(1, 4)))
    obstacles = draw(st.lists(rects(within=CELL), max_size=3))
    return InstallSafeRegion(
        cell_ref=pack_cell_ref(draw(st.integers(0, 99)),
                               draw(st.integers(0, 99))),
        bitmap=PyramidBitmap.from_obstacles(pyramid, obstacles))


#: Every response kind a reply can carry.
RESPONSES = {
    "safe_period": st.builds(InstallSafePeriod,
                             expiry=st.floats(0.0, 1e6, allow_nan=False)),
    "invalidate": st.just(InvalidateState()),
    "notification": st.builds(AlarmNotification, alarm_id=ids),
    "rect_region": st.builds(InstallSafeRegion, rect=rects()),
    "alarm_list": st.builds(
        InstallAlarmList, cell=rects(),
        alarms=st.lists(st.builds(AlarmRecord, alarm_id=ids,
                                  region=rects()),
                        max_size=6).map(tuple)),
    "bitmap_region": bitmap_regions(),
}

any_response = st.one_of(*RESPONSES.values())


@pytest.mark.parametrize("kind", sorted(RESPONSES))
@given(data=st.data())
@settings(max_examples=examples(20, 200), deadline=None)
def test_summary_charges_what_the_transport_charges(kind, data):
    codec = WireCodec()
    others = data.draw(st.lists(any_response, max_size=5))
    at = data.draw(st.integers(0, len(others)))
    reply = tuple(others[:at] + [data.draw(RESPONSES[kind])] + others[at:])
    payload = encode_reply(codec, reply,
                           sender=data.draw(st.integers(0, 2 ** 31)),
                           timestamp=data.draw(st.floats(0.0, 1e6)))
    sized = [message for message in reply
             if downlink_kind(message) is not None]
    assert reply_summary(payload) == (
        len(reply), len(reply) - len(sized),
        sum(codec.size_of_response(message) for message in sized))
