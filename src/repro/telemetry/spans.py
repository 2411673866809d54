"""The span vocabulary of the distributed-tracing layer.

One traced exchange is a tiny fixed tree: the client times a *root*
span around its stop-and-wait request, the frame envelope carries the
``(trace, span)`` pair to the daemon (see
:mod:`repro.protocol.framing`), and the daemon times one child span per
serving stage — decode, handle, reply-encode — all parented
on the client's span id.  Each span is one ``span`` record, written
once when it finishes (in a ``finally``, so a failed exchange leaves
its ``error`` record too).  Span ids inside a trace are therefore
*static*: the root is always :data:`ROOT_SPAN_ID` and each server stage
owns the fixed id in :data:`SERVER_SPAN_IDS`, so well-formedness is
checkable without any runtime id allocator on the serving hot path.

Trace ids are client-assigned: a per-transport counter, salted with the
transport's ``client_id`` (shifted by :data:`CLIENT_TRACE_SHIFT`) so
two transports sharing one trace file do not collide.  Spans from
different engine shards never share a tree, so every grouping below
keys on ``(shard, trace)``.

:func:`validate_spans` is the read-side well-formedness check behind
``repro trace validate``: no span id repeats in its tree, every parent
is a span of the same tree, statuses are legal, and no span record
carries the untraced id 0.  The traced socket and fault tests run it
on their captured events.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from .events import EVENT_SPAN

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

#: The registry histogram each server stage's time feeds.
STAGE_HISTOGRAMS: Dict[str, str] = {
    SPAN_DECODE: "decode_cost_us",
    SPAN_HANDLE: "handle_cost_us",
    SPAN_REPLY_ENCODE: "reply_encode_cost_us",
}

#: Span statuses.
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
    """Well-formedness problems of a trace's span records.

    Checks, per ``(shard, trace)`` tree: no span id appears twice, a
    parent (when non-zero) is a span of the same tree, statuses are
    legal, and no record carries trace or span id 0.  Returns an empty
    list for a valid stream.  A child is written before its parent (it
    finishes first), so parents are resolved once the whole stream
    has been read.

    One parent is allowed to be absent: :data:`ROOT_SPAN_ID`.  In a
    genuinely distributed run the client and the daemon trace into
    *separate* files, so a serve trace holds the server-stage children
    while their parent — the client's root span — lives in the client's
    trace; a child parented on the remote root is well-formed.  Any
    other unresolved parent still flags.
    """
    problems: List[str] = []
    seen: Set[_SpanKey] = set()
    parented: List[Tuple[int, _SpanKey, object]] = []
    for index, record in enumerate(events):
        if record.get("type") != EVENT_SPAN:
            continue
        shard = record.get("shard")
        trace = record.get("trace")
        span = record.get("span")
        if not trace or not span:
            problems.append(
                "event %d: span carries the untraced id 0 "
                "(trace=%r span=%r)" % (index, trace, span))
            continue
        status = record.get("status")
        if status not in (STATUS_OK, STATUS_ERROR):
            problems.append(
                "event %d: span status %r is not %r or %r"
                % (index, status, STATUS_OK, STATUS_ERROR))
        key: _SpanKey = (shard, trace, span)
        if key in seen:
            problems.append(
                "event %d: span (trace %s, span %s) recorded twice"
                % (index, trace, span))
            continue
        seen.add(key)
        parent = record.get("parent")
        if parent and parent != ROOT_SPAN_ID:
            parented.append((index, key, parent))
    for index, (shard, trace, span), parent in parented:
        if (shard, trace, parent) not in seen:
            problems.append(
                "event %d: span (trace %s, span %s) parented on %s, "
                "which is not a span of that trace"
                % (index, trace, span, parent))
    return problems


def span_counts(events: Sequence[Mapping[str, object]]
                ) -> Dict[Tuple[str, str], int]:
    """``{(span name, status): count}`` over an event stream."""
    counts: Dict[Tuple[str, str], int] = {}
    for record in events:
        if record.get("type") == EVENT_SPAN:
            pair = (str(record.get("name")), str(record.get("status")))
            counts[pair] = counts.get(pair, 0) + 1
    return counts
