"""Real network serving: the asyncio daemon and its socket clients.

The protocol split (:mod:`repro.protocol`) left transports pluggable;
this package plugs in an actual byte stream.  Four pieces:

* :class:`AlarmDaemon` — an asyncio server (TCP or Unix domain socket)
  that frames uplink reports off connections, drives the stateless
  :func:`~repro.protocol.handlers.handle_request` pipeline on each
  read's frames in order, and writes their replies in coalesced
  writes, backpressured by ``drain``.
  :class:`DaemonThread` hosts one in a background thread for tests and
  the in-process network engine.
* :class:`SocketTransport` — a blocking-socket client implementing the
  same :class:`~repro.protocol.transport.Transport` interface as the
  in-process transports, so a :class:`~repro.protocol.transport.ClientSession`
  cannot tell it is talking over a real socket.
* :func:`run_network_simulation` — the serial replay loop with the
  client and server halves on opposite ends of a Unix socket; the
  conformance suite pins its counters byte-identical to the goldens.
* :func:`scrape_stats` — the ``repro stats`` / ``repro top`` operator
  channel client: one STATS frame in, the daemon's live snapshot out,
  with pure renderers for text, JSON, Prometheus and the polling
  dashboard.

Byte accounting is unchanged by design: the daemon charges through the
same :class:`~repro.protocol.transport.InProcessTransport` accounting
path the serial engine uses, and the frame envelope (headers, batch
tags, in-band notifications) is never charged — see
``docs/NETWORKING.md``.
"""

from .daemon import AlarmDaemon, DaemonThread
from .engine import run_network_simulation
from .sockets import (PyramidGeometry, SocketTransport, bitmap_geometry_of,
                      pyramid_resolver)
from .stats import (StatsSnapshot, render_stats_json, render_stats_prom,
                    render_stats_text, render_top, scrape_stats)

__all__ = [
    "AlarmDaemon",
    "DaemonThread",
    "PyramidGeometry",
    "SocketTransport",
    "StatsSnapshot",
    "bitmap_geometry_of",
    "pyramid_resolver",
    "render_stats_json",
    "render_stats_prom",
    "render_stats_text",
    "render_top",
    "run_network_simulation",
    "scrape_stats",
]
