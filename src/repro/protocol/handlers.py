"""Stateless request handlers: one uplink in, typed responses out.

:func:`handle_request` is the server's single entry point for uplink
traffic.  It owns the strategy-independent half of every exchange —
evaluate the report against the alarm index, fire one-shot triggers,
convert each firing into an :class:`AlarmNotification` — and delegates
the strategy-specific half to a :class:`ServerPolicy`, the server-side
counterpart of a processing strategy (compute a safe region, a safe
period, or an alarm list, and decide when to ship it).

Handlers and policies are *stateless*: everything mutable lives in the
:class:`~repro.engine.server.AlarmServer` (one-shot fired sets, the
safe-region memo, per-policy scratch), which is what makes the handler
shardable — the parallel engine simply builds one server per shard.
Policies never touch ``Metrics`` or the transport: byte accounting
happens at the transport boundary from the sizes of the responses they
return (rule RL008 enforces the same boundary on the client
side).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from .messages import (AlarmNotification, RegionExitReport, Request,
                       Response, ServerReply)

if TYPE_CHECKING:  # runtime import would cycle through engine.server
    from ..alarms import SpatialAlarm
    from ..engine.server import AlarmServer


class ServerPolicy:
    """Strategy-specific server behaviour behind :func:`handle_request`.

    ``triggered`` is the list of alarms the report just fired (their
    notifications are already queued by the handler).  A hook returns a
    tuple of the additional responses the strategy's server side ships
    — install messages, typically; when nothing fired, that tuple is
    the reply as it stands.  The default policy is evaluate-only: the
    server answers location reports with nothing but notifications,
    which is exactly the periodic baseline's server.
    """

    def on_location_report(self, server: "AlarmServer", request: Request,
                           time_s: float,
                           triggered: Sequence["SpatialAlarm"]
                           ) -> Tuple[Response, ...]:
        """An ordinary report: the client did not leave installed state."""
        return ()

    def on_region_exit(self, server: "AlarmServer", request: Request,
                       time_s: float,
                       triggered: Sequence["SpatialAlarm"]
                       ) -> Tuple[Response, ...]:
        """The client left its safe region / base cell (or first report)."""
        return ()


#: Shared evaluate-only policy (the periodic baseline's server side).
EVALUATE_ONLY = ServerPolicy()


def handle_request(server: "AlarmServer", policy: ServerPolicy,
                   request: Request, time_s: float) -> ServerReply:
    """Process one uplink request into its reply.

    Strategy-independent part first: evaluate the position against the
    pending relevant alarms, fire matches one-shot, queue a notification
    per firing.  Then the policy contributes its install messages, keyed
    on whether the client reported an exit (renew monitoring state) or
    an in-place condition (evaluate, possibly quick-update).
    """
    triggered = server.process_location(request.user_id, time_s,
                                        request.position)
    if isinstance(request, RegionExitReport):
        installs = policy.on_region_exit(server, request, time_s, triggered)
    else:
        installs = policy.on_location_report(server, request, time_s,
                                             triggered)
    if not triggered:
        return installs
    responses: List[Response] = [AlarmNotification(alarm.alarm_id)
                                 for alarm in triggered]
    responses.extend(installs)
    return tuple(responses)
