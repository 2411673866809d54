"""Tests for the declared session spec tables."""

from repro.protocol import spec
from repro.protocol.framing import FrameKind


class TestTableShape:
    def test_states_are_ordered_semantically(self):
        assert spec.SESSION_STATES == ("AWAIT_HELLO", "READY",
                                       "CLOSING")
        assert spec.STATE_AWAIT_HELLO == spec.SESSION_STATES[0]
        assert spec.STATE_READY == spec.SESSION_STATES[1]
        assert spec.STATE_CLOSING == spec.SESSION_STATES[2]

    def test_every_row_stays_in_vocabulary(self):
        for (state, kind, direction), target in \
                spec.SESSION_TRANSITIONS.items():
            assert state in spec.SESSION_STATES
            assert target in spec.SESSION_STATES
            assert direction in (spec.DIR_CLIENT_TO_SERVER,
                                 spec.DIR_SERVER_TO_CLIENT)
            assert isinstance(kind, FrameKind)

    def test_closing_is_terminal(self):
        assert not any(state == spec.STATE_CLOSING
                       for state, _, _ in spec.SESSION_TRANSITIONS)

    def test_error_is_the_only_teardown(self):
        teardown = {kind for (_, kind, _), target in
                    spec.SESSION_TRANSITIONS.items()
                    if target == spec.STATE_CLOSING}
        assert teardown == {FrameKind.ERROR}

    def test_client_table_is_the_uplink_half(self):
        assert spec.CLIENT_TRANSITIONS == {
            (state, kind): target
            for (state, kind, direction), target
            in spec.SESSION_TRANSITIONS.items()
            if direction == spec.DIR_CLIENT_TO_SERVER}
        assert set(spec.CLIENT_TRANSITIONS) == {
            (spec.STATE_AWAIT_HELLO, FrameKind.HELLO),
            (spec.STATE_AWAIT_HELLO, FrameKind.SHUTDOWN),
            (spec.STATE_READY, FrameKind.REQUEST),
            (spec.STATE_READY, FrameKind.STATS),
            (spec.STATE_READY, FrameKind.SHUTDOWN)}


class TestHelpers:
    def test_next_state_on_declared_row(self):
        assert spec.SESSION_TRANSITIONS.get(
            (spec.STATE_AWAIT_HELLO, FrameKind.HELLO,
             spec.DIR_CLIENT_TO_SERVER)) == spec.STATE_READY

    def test_next_state_on_forbidden_row(self):
        assert spec.SESSION_TRANSITIONS.get(
            (spec.STATE_READY, FrameKind.HELLO,
             spec.DIR_CLIENT_TO_SERVER)) is None
