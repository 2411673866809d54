"""The declared client↔server session contract, as data.

The framed protocol (:mod:`repro.protocol.framing`, served by
:mod:`repro.net.daemon`, spoken by :mod:`repro.net.sockets`) is an
automaton: a connection starts unauthenticated, a HELLO establishes
it, and only then may requests flow.  This module declares that
automaton as plain data, so two consumers share one source of truth:

* the **PA008** checker extracts the *implemented* automaton from the
  dispatch chains in ``net/daemon.py``/``net/sockets.py`` and diffs it
  against :data:`SESSION_TRANSITIONS`;
* the **runtime sanitizer** (:meth:`repro.sanitize.Sanitizer.
  check_session_transition`) asserts the daemon's per-connection state
  walk stays inside the automaton while serving.

Both tables are *literal* on purpose: PA008 reads them with
``ast.literal_eval`` from the analyzed tree (so miniature fixture trees
can carry their own spec), and the runtime imports this module — one
declaration, two read paths.  Frame kinds are referred to by their
:class:`~repro.protocol.framing.FrameKind` member *names* to keep this
module import-light (it must not drag the framing layer into every
sanitizer user).

The state order in :data:`SESSION_STATES` is semantic: index 0 is the
pre-handshake state, index 1 the established state, index 2 the
terminal teardown state.  PA008's guard extraction relies on it.

See ``docs/NETWORKING.md`` ("The session automaton") for the diagram.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Connection states, ordered pre-handshake → established → teardown.
#: A *literal* tuple — PA008 reads it with ``ast.literal_eval``.
SESSION_STATES: Tuple[str, str, str] = (
    "AWAIT_HELLO", "READY", "CLOSING")

STATE_AWAIT_HELLO = SESSION_STATES[0]
STATE_READY = SESSION_STATES[1]
STATE_CLOSING = SESSION_STATES[2]

#: Frame directions: client→server uplink, server→client downlink.
DIR_CLIENT_TO_SERVER = "c2s"
DIR_SERVER_TO_CLIENT = "s2c"

#: The session automaton: ``(state, FrameKind name, direction)`` →
#: next state.  A pair absent from this table is a protocol violation
#: — the daemon answers it with an ERROR frame and drops the
#: connection; the client surfaces a ``TransportError``.  ERROR is the
#: only transition into the terminal CLOSING state: the server never
#: continues a conversation it has rejected.
SESSION_TRANSITIONS: Dict[Tuple[str, str, str], str] = {
    # Handshake: exactly one HELLO, first, from the client.
    ("AWAIT_HELLO", "HELLO", "c2s"): "READY",
    # The operator channel works pre-handshake too: a SHUTDOWN frame
    # must be able to stop a daemon unconditionally.
    ("AWAIT_HELLO", "SHUTDOWN", "c2s"): "AWAIT_HELLO",
    ("AWAIT_HELLO", "ERROR", "s2c"): "CLOSING",
    # Established traffic.
    ("READY", "REQUEST", "c2s"): "READY",
    ("READY", "STATS", "c2s"): "READY",
    ("READY", "SHUTDOWN", "c2s"): "READY",
    ("READY", "REPLY", "s2c"): "READY",
    ("READY", "PUSH", "s2c"): "READY",
    ("READY", "STATS", "s2c"): "READY",
    ("READY", "ERROR", "s2c"): "CLOSING",
}


def session_next_state(state: str, kind_name: str,
                       direction: str) -> Optional[str]:
    """The state after one frame, or ``None`` when it is forbidden."""
    return SESSION_TRANSITIONS.get((state, kind_name, direction))

