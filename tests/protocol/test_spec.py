"""Tests for the declared session spec tables."""

import ast
from pathlib import Path

import pytest

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
        kinds = {member.name for member in FrameKind}
        for (state, kind, direction), target in \
                spec.SESSION_TRANSITIONS.items():
            assert state in spec.SESSION_STATES
            assert target in spec.SESSION_STATES
            assert direction in (spec.DIR_CLIENT_TO_SERVER,
                                 spec.DIR_SERVER_TO_CLIENT)
            assert kind in kinds

    def test_closing_is_terminal(self):
        assert not any(state == spec.STATE_CLOSING
                       for state, _, _ in spec.SESSION_TRANSITIONS)

    def test_error_is_the_only_teardown(self):
        teardown = {kind for (_, kind, _), target in
                    spec.SESSION_TRANSITIONS.items()
                    if target == spec.STATE_CLOSING}
        assert teardown == {"ERROR"}


class TestLiteralness:
    """PA008 re-reads the tables with ``ast.literal_eval`` from source —
    a refactor computing them would silently blind it."""

    @pytest.mark.parametrize("name", ["SESSION_STATES",
                                      "SESSION_TRANSITIONS"])
    def test_table_is_a_literal(self, name):
        source = Path(spec.__file__).read_text(encoding="utf-8")
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) \
                    and stmt.value is not None:
                targets = [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in targets):
                value = (stmt.value if isinstance(stmt, ast.Assign)
                         else stmt.value)
                assert ast.literal_eval(value) == getattr(spec, name)
                return
        pytest.fail("table %s not assigned at module level" % name)


class TestHelpers:
    def test_next_state_on_declared_row(self):
        assert spec.session_next_state(
            spec.STATE_AWAIT_HELLO, "HELLO",
            spec.DIR_CLIENT_TO_SERVER) == spec.STATE_READY

    def test_next_state_on_forbidden_row(self):
        assert spec.session_next_state(
            spec.STATE_READY, "HELLO",
            spec.DIR_CLIENT_TO_SERVER) is None

