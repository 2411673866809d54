"""Transports: where protocol messages cross and where bytes are charged.

A :class:`Transport` carries typed protocol messages between a client
session and the server's request handler.  The transport boundary is the
*single* place the simulation accounts traffic — every ``Metrics``
uplink/downlink increment and every ``location_report`` /
``downlink_sent`` telemetry event originates here, sized by the
:class:`~repro.protocol.wire.WireCodec` from the message being carried.
Strategies and server policies never touch ``Metrics``; what they ship
is what gets charged, and charged amounts equal encoded lengths by
construction (``verify_wire=True`` asserts it per message).

Two implementations:

* :class:`InProcessTransport` — the reliable fast path used by the
  engines.  Messages are handed over as Python objects (no copy); only
  the accounting consults the codec.
* :class:`LossyTransport` — a simulated unreliable link: seeded random
  drop probabilities per direction, a virtual delivery delay, and
  stop-and-wait retransmission with exponential backoff and a bounded
  attempt budget.  Every attempt — dropped or delivered — is charged,
  so the cost of unreliability is visible in the same counters the
  paper's figures report; drops are additionally counted in the
  ``Metrics`` drop fields.  The accuracy contract survives loss as long
  as every exchange completes within its attempt budget (exhaustion
  raises :class:`TransportError`) — the retry tests pin this.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable, Optional

from ..telemetry.facade import DISABLED
from ..telemetry.spans import (ROOT_SPAN_ID, SPAN_LOSSY_REQUEST,
                               STATUS_ERROR, STATUS_OK, make_trace_id)
from .handlers import ServerPolicy, handle_request
from .messages import Request, Response, ServerReply, downlink_kind
from .wire import WireCodec

if TYPE_CHECKING:  # runtime import would cycle through engine.server
    from ..engine.metrics import Metrics
    from ..engine.server import AlarmServer
    from ..index import GridOverlay
    from ..strategies.base import ProcessingStrategy
    from ..telemetry.facade import Telemetry


class TransportError(RuntimeError):
    """An exchange could not be completed within the attempt budget."""


class WireFidelityError(AssertionError):
    """An accounted size disagreed with the codec-serialized length."""


class Transport:
    """Carrier of protocol messages between one session and the server."""

    def request(self, request: Request, time_s: float) -> ServerReply:
        """Deliver an uplink request; return the server's reply."""
        raise NotImplementedError

    def push(self, user_id: int, message: Response,
             time_s: float) -> None:
        """Server-initiated downlink (invalidations outside any reply)."""
        raise NotImplementedError


class InProcessTransport(Transport):
    """Reliable in-process fast path.

    Wraps an :class:`~repro.engine.server.AlarmServer` plus the
    strategy's :class:`~repro.protocol.handlers.ServerPolicy`; charges
    each request and each sized response exactly once against the
    server's ``Metrics`` and telemetry.
    """

    __slots__ = ("server", "policy", "codec", "verify_wire")

    def __init__(self, server: "AlarmServer", policy: ServerPolicy,
                 codec: Optional[WireCodec] = None,
                 verify_wire: bool = False) -> None:
        self.server = server
        self.policy = policy
        self.codec = (codec if codec is not None
                      else WireCodec.from_sizes(server.sizes))
        self.verify_wire = verify_wire

    # ------------------------------------------------------------------
    def request(self, request: Request, time_s: float) -> ServerReply:
        server = self.server
        nbytes = self._charge_uplink(request)
        telemetry = server.telemetry
        cost_started = time.perf_counter() if telemetry.enabled else 0.0
        reply = handle_request(server, self.policy, request, time_s)
        if telemetry.enabled:
            telemetry.location_report(
                time_s, request.user_id, nbytes,
                (time.perf_counter() - cost_started) * 1e6)
        for message in reply:
            self._charge_downlink(message, request.user_id, time_s)
        return reply

    def push(self, user_id: int, message: Response,
             time_s: float) -> None:
        self._charge_downlink(message, user_id, time_s)

    # ------------------------------------------------------------------
    # Accounting (the only writers of the traffic counters)
    # ------------------------------------------------------------------
    def _charge_uplink(self, request: Request) -> int:
        """Charge one uplink attempt, its size checked against its
        encoding under ``verify_wire``; returns the accounted bytes."""
        server = self.server
        nbytes = self.codec.size_of_request(request)
        if self.verify_wire:
            encoded = self.codec.encode_request(request)
            if len(encoded) != nbytes:
                raise WireFidelityError(
                    "uplink charged %d bytes but encodes to %d"
                    % (nbytes, len(encoded)))
        server.metrics.uplink_messages += 1
        server.metrics.uplink_bytes += nbytes
        return nbytes

    def _charge_downlink(self, message: Response, user_id: int,
                         time_s: float) -> int:
        """Charge one sized downlink payload; in-band messages are free.

        Returns the accounted byte count: 0 marks an in-band message,
        which is not charged and emits no event.  A traced run also
        times the sizing (``downlink_sizing_cost_us``).
        """
        server = self.server
        telemetry = server.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        nbytes = self.codec.size_of_response(message)
        if not nbytes:
            return 0
        if self.verify_wire:
            encoded = self.codec.encode_response(message, sender=user_id,
                                                 timestamp=time_s)
            if len(encoded) != nbytes:
                raise WireFidelityError(
                    "downlink %s charged %d bytes but encodes to %d"
                    % (downlink_kind(message), nbytes, len(encoded)))
        server.metrics.downlink_messages += 1
        server.metrics.downlink_bytes += nbytes
        if telemetry.enabled:
            kind = downlink_kind(message)
            assert kind is not None  # every charged payload has a kind
            telemetry.downlink_sent(
                time_s, user_id, nbytes, kind,
                (time.perf_counter() - started) * 1e6)
        return nbytes


class LossyTransport(InProcessTransport):
    """Simulated unreliable link with bounded stop-and-wait retry.

    ``uplink_drop`` / ``downlink_drop`` are per-attempt loss
    probabilities drawn from a seeded private RNG (runs are exactly
    reproducible).  ``delay_s`` is the one-way delivery latency charged
    per attempt; retransmission ``attempt`` additionally waits
    ``backoff_s * 2**(attempt-1)`` before resending.  The accumulated
    virtual latency of the worst exchange is exposed as
    ``max_exchange_latency_s`` so scenarios can assert it stays below
    the sampling interval — the condition under which stop-and-wait
    retry preserves the accuracy contract (the reply installs state
    before the next fix is taken).

    Dropped attempts are charged like delivered ones (bandwidth is
    consumed either way) and counted in ``Metrics.uplink_drops`` /
    ``downlink_drops``; a request whose uplink or any of whose reply
    payloads exhausts ``max_attempts`` raises :class:`TransportError`.

    With telemetry enabled each exchange is additionally wrapped in a
    ``lossy_request`` root span that closes ``"ok"`` on delivery and
    ``"error"`` on attempt-budget exhaustion — the retry loop may
    abandon an exchange, but it may never leak its span (``repro trace
    validate`` checks the ledger balances); ``_trace_count`` is the
    per-transport trace-id counter behind those spans.
    """

    __slots__ = ("uplink_drop", "downlink_drop", "delay_s", "backoff_s",
                 "max_attempts", "max_exchange_latency_s", "_rng",
                 "_trace_count")

    def __init__(self, server: "AlarmServer", policy: ServerPolicy,
                 codec: Optional[WireCodec] = None,
                 verify_wire: bool = False, *,
                 uplink_drop: float = 0.0, downlink_drop: float = 0.0,
                 delay_s: float = 0.0, backoff_s: float = 0.05,
                 max_attempts: int = 8, seed: int = 0) -> None:
        super().__init__(server, policy, codec, verify_wire)
        for name, probability in (("uplink_drop", uplink_drop),
                                  ("downlink_drop", downlink_drop)):
            if not 0.0 <= probability < 1.0:
                raise ValueError("%s must be in [0, 1)" % name)
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.uplink_drop = uplink_drop
        self.downlink_drop = downlink_drop
        self.delay_s = delay_s
        self.backoff_s = backoff_s
        self.max_attempts = max_attempts
        self.max_exchange_latency_s = 0.0
        self._rng = random.Random(seed)
        self._trace_count = 0

    # ------------------------------------------------------------------
    def request(self, request: Request, time_s: float) -> ServerReply:
        telemetry = self.server.telemetry
        if not telemetry.enabled:
            return self._exchange(request, time_s)
        self._trace_count += 1
        trace_id = make_trace_id(0, self._trace_count)
        started = time.perf_counter()
        telemetry.span_open(time_s, trace_id, ROOT_SPAN_ID, 0,
                            SPAN_LOSSY_REQUEST)
        try:
            reply = self._exchange(request, time_s)
        except TransportError:
            # Attempt-budget exhaustion (uplink or any reply payload)
            # abandons the exchange but must not leak its span.
            telemetry.span_close(time_s, trace_id, ROOT_SPAN_ID,
                                 STATUS_ERROR,
                                 (time.perf_counter() - started) * 1e6)
            raise
        telemetry.span_close(time_s, trace_id, ROOT_SPAN_ID, STATUS_OK,
                             (time.perf_counter() - started) * 1e6)
        return reply

    def _exchange(self, request: Request, time_s: float) -> ServerReply:
        server = self.server
        telemetry = server.telemetry
        latency = 0.0
        for attempt in range(self.max_attempts):
            nbytes = self._charge_uplink(request)
            latency += self._attempt_latency(attempt)
            if self._rng.random() < self.uplink_drop:
                server.metrics.uplink_drops += 1
                if telemetry.enabled:
                    telemetry.location_report(time_s, request.user_id,
                                              nbytes, 0.0)
                    telemetry.transport_drop(time_s, request.user_id,
                                             "uplink")
                continue
            cost_started = (time.perf_counter() if telemetry.enabled
                            else 0.0)
            reply = handle_request(server, self.policy, request, time_s)
            if telemetry.enabled:
                telemetry.location_report(
                    time_s, request.user_id, nbytes,
                    (time.perf_counter() - cost_started) * 1e6)
            for message in reply:
                latency += self._deliver_downlink(message,
                                                  request.user_id, time_s)
            self.max_exchange_latency_s = max(self.max_exchange_latency_s,
                                              latency)
            return reply
        raise TransportError(
            "uplink report of user %d undeliverable after %d attempts"
            % (request.user_id, self.max_attempts))

    def push(self, user_id: int, message: Response,
             time_s: float) -> None:
        self._deliver_downlink(message, user_id, time_s)

    # ------------------------------------------------------------------
    def _deliver_downlink(self, message: Response, user_id: int,
                          time_s: float) -> float:
        """Retransmit one payload until delivered; return its latency."""
        server = self.server
        latency = 0.0
        for attempt in range(self.max_attempts):
            if not self._charge_downlink(message, user_id, time_s):
                return 0.0  # in-band: rides the (already delivered) reply
            latency += self._attempt_latency(attempt)
            if self._rng.random() < self.downlink_drop:
                server.metrics.downlink_drops += 1
                if server.telemetry.enabled:
                    server.telemetry.transport_drop(time_s, user_id,
                                                    "downlink")
                continue
            return latency
        raise TransportError(
            "downlink payload for user %d undeliverable after %d attempts"
            % (user_id, self.max_attempts))

    def _attempt_latency(self, attempt: int) -> float:
        """Virtual seconds attempt number ``attempt`` (0-based) costs."""
        if attempt == 0:
            return self.delay_s
        return self.delay_s + self.backoff_s * (2.0 ** (attempt - 1))


#: Builds the transport for one (server, policy) pair.  Must be
#: picklable for the sharded engine — classes and ``functools.partial``
#: of classes qualify, lambdas do not.
TransportFactory = Callable[["AlarmServer", ServerPolicy], Transport]


class ClientSession:
    """The client endpoint of the protocol.

    Everything a strategy's client half may do goes through here: send
    typed requests (:attr:`send`) and account its own local monitoring
    work (:meth:`charge_probe`).  The session also carries the pieces
    of shared configuration a real device would hold — the grid
    geometry (to resolve wire cell references) — and the run's
    telemetry facade for client-side events.
    """

    __slots__ = ("transport", "send", "grid", "telemetry", "_metrics")

    def __init__(self, transport: Transport, metrics: "Metrics",
                 grid: "GridOverlay",
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.transport = transport
        #: One stop-and-wait exchange, ``send(request, time_s) ->
        #: ServerReply``: the transport's own ``request``, bound once.
        self.send: Callable[[Request, float], ServerReply] = \
            transport.request
        self.grid = grid
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._metrics = metrics

    def charge_probe(self, ops: int, checks: int = 1) -> None:
        """Account ``checks`` local containment checks, ``ops``
        comparisons between them.

        A client's whole silent run is charged in one call, with the
        sums its fixes would have charged one by one.  The only
        sanctioned path from strategy code to the energy counters
        (rule RL008 forbids direct ``Metrics`` access from
        strategies).
        """
        self._metrics.containment_checks += checks
        self._metrics.containment_ops += ops


def connect(server: "AlarmServer", strategy: "ProcessingStrategy",
            transport_factory: Optional[TransportFactory] = None
            ) -> ClientSession:
    """Wire a strategy to a server: policy, transport, session, attach.

    The one construction path the engines share: the strategy supplies
    its server-side policy, ``transport_factory`` (default: the reliable
    in-process transport) supplies the link, and the returned session is
    already attached to the strategy.
    """
    policy = strategy.server_policy()
    factory = (transport_factory if transport_factory is not None
               else InProcessTransport)
    transport = factory(server, policy)
    session = ClientSession(transport, server.metrics, server.grid,
                            server.telemetry)
    strategy.attach(session)
    return session
