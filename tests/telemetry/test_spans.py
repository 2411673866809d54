"""Span vocabulary: trace ids and stream well-formedness."""

from repro.telemetry.spans import (CLIENT_TRACE_SHIFT, ROOT_SPAN_ID,
                                   SERVER_SPAN_IDS, make_trace_id,
                                   span_counts, validate_spans)


def _span(trace, span, parent, name, status="ok", shard=0):
    return {"record": "event", "type": "span", "t": 0.0,
            "shard": shard, "trace": trace, "span": span,
            "parent": parent, "name": name, "status": status,
            "elapsed_us": 1.0}


class TestMakeTraceId:
    def test_salts_client_id_above_the_counter(self):
        assert make_trace_id(0, 1) == 1
        assert make_trace_id(3, 7) == (3 << CLIENT_TRACE_SHIFT) | 7

    def test_distinct_transports_never_collide(self):
        ids = {make_trace_id(client, counter)
               for client in range(3) for counter in range(1, 100)}
        assert len(ids) == 3 * 99


class TestValidateSpans:
    def test_balanced_tree_is_clean(self):
        # Children finish, and so are written, before their root.
        events = [_span(5, span, ROOT_SPAN_ID, name)
                  for name, span in SERVER_SPAN_IDS.items()]
        events.append(_span(5, ROOT_SPAN_ID, 0, "client_request"))
        assert validate_spans(events) == []

    def test_remote_root_parent_is_well_formed(self):
        """A serve trace of a distributed run holds the server children
        while the client root lives in the client's own trace — a child
        parented on the absent ROOT_SPAN_ID must not flag."""
        events = [_span(5, 2, ROOT_SPAN_ID, "decode")]
        assert validate_spans(events) == []

    def test_other_missing_parents_still_flag(self):
        events = [_span(5, 4, 3, "handle")]
        problems = validate_spans(events)
        assert len(problems) == 1
        assert "not a span of that trace" in problems[0]

    def test_double_open_flags(self):
        events = [_span(5, 1, 0, "a"), _span(5, 1, 0, "a")]
        assert any("recorded twice" in p for p in validate_spans(events))

    def test_untraced_zero_ids_flag(self):
        problems = validate_spans([_span(0, 1, 0, "a")])
        assert any("untraced id 0" in p for p in problems)

    def test_bad_status_flags(self):
        events = [_span(5, 1, 0, "a", status="meh")]
        assert any("status" in p for p in validate_spans(events))

    def test_shards_are_independent_trees(self):
        events = [_span(5, 1, 0, "a", shard=0),
                  _span(5, 1, 0, "a", shard=1)]
        assert validate_spans(events) == []
        # A parent in another shard's tree is not this tree's parent.
        events = [_span(5, 2, 0, "a", shard=0),
                  _span(5, 4, 2, "b", shard=1)]
        assert len(validate_spans(events)) == 1


class TestSpanCounts:
    def test_counts_by_name_and_status(self):
        events = [_span(5, 1, 0, "client_request", status="ok"),
                  _span(6, 1, 0, "client_request", status="error"),
                  _span(7, 1, 0, "client_request", status="ok")]
        assert span_counts(events) == {
            ("client_request", "ok"): 2,
            ("client_request", "error"): 1,
        }
