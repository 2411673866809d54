"""The network simulation engine: serial replay over a real socket.

:func:`run_network_simulation` is the serial engine
(:func:`~repro.engine.simulation.run_session`) with its link
replaced by a Unix-domain socket: the server half runs in an
:class:`~repro.net.daemon.AlarmDaemon` on a background event-loop
thread, the client half drives a :class:`~repro.net.sockets.SocketTransport`
through the unchanged ``replay_vehicle_major`` loop.  Same world, same
strategy objects, same stop-and-wait semantics — every protocol byte
just happens to cross a kernel socket buffer.

The result is scored like any serial run, and the transport
conformance suite pins its counters equal to the in-process goldens:
the framed path must charge *exactly* what the in-process path
charges, message for message and byte for byte.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, Optional

from ..engine.metrics import Metrics
from ..engine.server import AlarmServer
from ..engine.simulation import SimulationResult, World, run_session
from ..protocol.transport import ClientSession
from ..protocol.wire import WireCodec
from ..sanitize import Sanitizer
from ..strategies.base import ProcessingStrategy
from ..telemetry.facade import Telemetry
from .daemon import AlarmDaemon, DaemonThread
from .sockets import SocketTransport, bitmap_geometry_of, pyramid_resolver

#: Bound on every client read, so a wedged daemon surfaces as
#: :class:`~repro.protocol.transport.TransportError`, never a hang.
#: (The daemon's batching and queue bounds are ``AlarmDaemon``'s own.)
READ_TIMEOUT_S = 60.0


@contextmanager
def socket_link(server: AlarmServer, strategy: ProcessingStrategy,
                sanitizer: Sanitizer) -> Iterator[Metrics]:
    """A daemon thread serving ``server``, the strategy on a socket to it.

    The daemon charges all traffic against the server's ``Metrics``; the
    client session counts its local containment probes into a second
    one, yielded here for the session to merge.
    """
    codec = WireCodec.from_sizes(server.sizes)
    daemon = AlarmDaemon(server, strategy.server_policy(), codec,
                         verify_wire=sanitizer.enabled, sanitizer=sanitizer)
    geometry = bitmap_geometry_of(strategy)
    pyramid_for = (pyramid_resolver(server.grid, geometry)
                   if geometry is not None else None)
    client_metrics = Metrics()
    with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
        path = os.path.join(tmp, "alarm.sock")
        with DaemonThread(daemon, path=path):
            transport = SocketTransport.connect_unix(
                path, codec, pyramid_for=pyramid_for,
                telemetry=server.telemetry, timeout_s=READ_TIMEOUT_S,
                sanitizer=sanitizer)
            try:
                strategy.attach(ClientSession(transport, client_metrics,
                                              server.grid, server.telemetry))
                yield client_metrics
            finally:
                transport.close()


def run_network_simulation(world: World, strategy: ProcessingStrategy,
                           *, telemetry: Optional[Telemetry] = None,
                           sanitize: Optional[bool] = None
                           ) -> SimulationResult:
    """Replay ``world`` through ``strategy`` over a Unix-domain socket.

    The serial session with a socket link; flags mirror the serial
    engine where they are meaningful.
    """
    return run_session(world, strategy, socket_link, telemetry=telemetry,
                       sanitize=sanitize)
