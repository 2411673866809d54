"""The span vocabulary of the distributed-tracing layer.

One traced exchange is a tiny fixed tree: the client opens a *root*
span around its stop-and-wait request, the frame envelope carries the
``(trace, span)`` pair to the daemon (see
:mod:`repro.protocol.framing`), and the daemon emits one child span per
serving stage — decode, handle, reply-encode — all parented
on the client's span id.  Span ids inside a trace are therefore
*static*: the root is always :data:`ROOT_SPAN_ID` and each server stage
owns the fixed id in :data:`SERVER_SPAN_IDS`, so well-formedness is
checkable without any runtime id allocator on the serving hot path.

Trace ids are client-assigned: a per-transport counter, salted with the
transport's ``client_id`` (shifted by :data:`CLIENT_TRACE_SHIFT`) so
two transports sharing one trace file do not collide.  Spans from
different engine shards never share a tree, so every grouping below
keys on ``(shard, trace)``.

:func:`validate_spans` is the read-side well-formedness check behind
``repro trace validate``: every opened span closes exactly once, no
span closes unopened, parents exist before their children, and no span
event carries the untraced id 0.  It is the one span-balance check:
the traced socket and fault tests run it on their captured events.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from .events import EVENT_SPAN_CLOSE, EVENT_SPAN_OPEN

#: Span names, client side.
SPAN_CLIENT_REQUEST = "client_request"   # SocketTransport.request
SPAN_LOSSY_REQUEST = "lossy_request"     # LossyTransport.request

#: Span names, server side (the daemon's serving stages, in order).
SPAN_DECODE = "decode"
SPAN_HANDLE = "handle"
SPAN_REPLY_ENCODE = "reply_encode"

#: The client root span's id within its trace.
ROOT_SPAN_ID = 1

#: Fixed server-side span ids, keyed by stage name.
SERVER_SPAN_IDS: Dict[str, int] = {
    SPAN_DECODE: 2,
    SPAN_HANDLE: 4,
    SPAN_REPLY_ENCODE: 5,
}

#: Span close statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Bits reserved for the per-transport counter below the client-id
#: salt; 2**40 requests per transport before ids wrap into the salt.
CLIENT_TRACE_SHIFT = 40


def make_trace_id(client_id: int, counter: int) -> int:
    """The trace id a transport assigns to its ``counter``-th request.

    Deterministic (no randomness, no host clock): the ``client_id``
    salt keeps concurrently-tracing transports in one trace file from
    colliding, and the counter keeps one transport's traces distinct.
    """
    return (client_id << CLIENT_TRACE_SHIFT) | counter


#: One span's identity within a trace file.
_SpanKey = Tuple[object, object, object]   # (shard, trace, span)


def validate_spans(events: Sequence[Mapping[str, object]]) -> List[str]:
    """Well-formedness problems of a trace's span stream.

    Checks, per ``(shard, trace)`` tree: every ``span_open`` has a
    fresh id, its parent (when non-zero) was opened earlier in the same
    tree, every ``span_close`` matches an open span, statuses are
    legal, no span event carries trace or span id 0, and at
    end-of-stream no span is left open.  Returns an empty list for a
    valid stream.

    One parent is allowed to be absent: :data:`ROOT_SPAN_ID`.  In a
    genuinely distributed run the client and the daemon trace into
    *separate* files, so a serve trace holds the server-stage children
    while their parent — the client's root span — lives in the client's
    trace; a child parented on the remote root is well-formed.  Any
    other unresolved parent still flags.
    """
    problems: List[str] = []
    open_spans: Dict[_SpanKey, str] = {}
    ever_opened: Set[_SpanKey] = set()
    for index, record in enumerate(events):
        event_type = record.get("type")
        if event_type not in (EVENT_SPAN_OPEN, EVENT_SPAN_CLOSE):
            continue
        shard = record.get("shard")
        trace = record.get("trace")
        span = record.get("span")
        key: _SpanKey = (shard, trace, span)
        if not trace or not span:
            problems.append(
                "event %d: %s carries the untraced id 0 "
                "(trace=%r span=%r)" % (index, event_type, trace, span))
            continue
        if event_type == EVENT_SPAN_OPEN:
            if key in ever_opened:
                problems.append(
                    "event %d: span (trace %s, span %s) opened twice"
                    % (index, trace, span))
                continue
            parent = record.get("parent")
            if (parent and parent != ROOT_SPAN_ID
                    and (shard, trace, parent) not in ever_opened):
                problems.append(
                    "event %d: span (trace %s, span %s) parented on "
                    "%s, which was never opened in that trace"
                    % (index, trace, span, parent))
            open_spans[key] = str(record.get("name"))
            ever_opened.add(key)
        else:
            status = record.get("status")
            if status not in (STATUS_OK, STATUS_ERROR):
                problems.append(
                    "event %d: span close status %r is not %r or %r"
                    % (index, status, STATUS_OK, STATUS_ERROR))
            if key not in open_spans:
                problems.append(
                    "event %d: span (trace %s, span %s) closed but "
                    "not open" % (index, trace, span))
                continue
            del open_spans[key]
    for (shard, trace, span), name in sorted(
            open_spans.items(), key=lambda item: str(item[0])):
        problems.append(
            "span (trace %s, span %s, name %r) opened but never closed"
            % (trace, span, name))
    return problems


def span_close_counts(events: Sequence[Mapping[str, object]]
                      ) -> Dict[Tuple[str, str], int]:
    """``{(span name, close status): count}`` over an event stream.

    Close events carry no name (the open event owns it), so closes are
    joined back to their opens by ``(shard, trace, span)``; a close
    with no matching open counts under the name ``"?"`` — and will
    separately fail :func:`validate_spans`.
    """
    names: Dict[_SpanKey, str] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for record in events:
        event_type = record.get("type")
        key: _SpanKey = (record.get("shard"), record.get("trace"),
                         record.get("span"))
        if event_type == EVENT_SPAN_OPEN:
            names[key] = str(record.get("name"))
        elif event_type == EVENT_SPAN_CLOSE:
            pair = (names.get(key, "?"), str(record.get("status")))
            counts[pair] = counts.get(pair, 0) + 1
    return counts
