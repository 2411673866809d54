"""The client↔server session contract, as data.

The framed protocol (:mod:`repro.protocol.framing`, served by
:mod:`repro.net.daemon`, spoken by :mod:`repro.net.sockets`) is an
automaton: a connection starts unauthenticated, a HELLO establishes
it, and only then may requests flow.  :data:`SESSION_TRANSITIONS`
declares that automaton, and the daemon's reader decides every
incoming frame with one lookup in its client-to-server half,
:data:`CLIENT_TRANSITIONS`: a frame with no row there is answered
with an ERROR frame and the connection closes.  A new frame kind is
one row here and one action arm in the daemon.
``tests/net/test_session_conformance.py`` replays every (live state,
kind) pair over a real socket and holds the daemon to this table.

See ``docs/NETWORKING.md`` ("The session automaton") for the diagram.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .framing import FrameKind

#: Connection states.
STATE_AWAIT_HELLO = "AWAIT_HELLO"
STATE_READY = "READY"
STATE_CLOSING = "CLOSING"
SESSION_STATES: Tuple[str, str, str] = (
    STATE_AWAIT_HELLO, STATE_READY, STATE_CLOSING)

#: Frame directions: client→server uplink, server→client downlink.
DIR_CLIENT_TO_SERVER = "c2s"
DIR_SERVER_TO_CLIENT = "s2c"

#: The session automaton: ``(state, kind, direction)`` → next state.
#: A pair absent from this table is a protocol violation — the daemon
#: answers it with an ERROR frame and drops the connection; the client
#: surfaces a ``TransportError``.  ERROR is the only transition into
#: the terminal CLOSING state: the server never continues a
#: conversation it has rejected.
SESSION_TRANSITIONS: Dict[Tuple[str, FrameKind, str], str] = {
    # Handshake: exactly one HELLO, first, from the client.
    (STATE_AWAIT_HELLO, FrameKind.HELLO, DIR_CLIENT_TO_SERVER):
        STATE_READY,
    # The operator channel works pre-handshake too: a SHUTDOWN frame
    # must be able to stop a daemon unconditionally.
    (STATE_AWAIT_HELLO, FrameKind.SHUTDOWN, DIR_CLIENT_TO_SERVER):
        STATE_AWAIT_HELLO,
    (STATE_AWAIT_HELLO, FrameKind.ERROR, DIR_SERVER_TO_CLIENT):
        STATE_CLOSING,
    # Established traffic.
    (STATE_READY, FrameKind.REQUEST, DIR_CLIENT_TO_SERVER): STATE_READY,
    (STATE_READY, FrameKind.STATS, DIR_CLIENT_TO_SERVER): STATE_READY,
    (STATE_READY, FrameKind.SHUTDOWN, DIR_CLIENT_TO_SERVER): STATE_READY,
    (STATE_READY, FrameKind.REPLY, DIR_SERVER_TO_CLIENT): STATE_READY,
    (STATE_READY, FrameKind.STATS, DIR_SERVER_TO_CLIENT): STATE_READY,
    (STATE_READY, FrameKind.ERROR, DIR_SERVER_TO_CLIENT): STATE_CLOSING,
}

#: The daemon's dispatch table: ``(state, kind)`` → next state for
#: every frame a client may send.
CLIENT_TRANSITIONS: Dict[Tuple[str, FrameKind], str] = {
    (state, kind): target
    for (state, kind, direction), target in SESSION_TRANSITIONS.items()
    if direction == DIR_CLIENT_TO_SERVER}
