"""Trace sinks: buffering, JSONL round-trip, corrupt-input reporting."""

import io

import pytest

from repro.telemetry import JsonlSink, ListSink, read_jsonl


class TestListSink:
    def test_buffers_in_order(self):
        sink = ListSink()
        sink.write_record({"n": 1})
        sink.write_record({"n": 2})
        assert [r["n"] for r in sink.records] == [1, 2]

    def test_drain_returns_and_clears(self):
        sink = ListSink()
        sink.write_record({"n": 1})
        assert sink.drain() == [{"n": 1}]
        assert sink.records == []
        assert sink.drain() == []


class TestJsonlSink:
    def test_path_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write_record({"b": 2, "a": 1})
        sink.write_record({"record": "event", "t": 1.5})
        sink.close()
        assert read_jsonl(path) == [{"a": 1, "b": 2},
                                    {"record": "event", "t": 1.5}]

    def test_output_is_key_sorted_and_compact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write_record({"z": 1, "a": 2})
        sink.close()
        assert path.read_text() == '{"a":2,"z":1}\n'

    def test_borrowed_handle_left_open(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        sink.write_record({"a": 1})
        sink.close()  # flushes, does not close
        assert not handle.closed
        assert handle.getvalue() == '{"a":1}\n'


class TestReadJsonl:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_corrupt_line_reports_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a":1}\n{"b": tru\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('[1,2]\n')
        with pytest.raises(ValueError, match="not an object"):
            read_jsonl(path)


class TestJsonlSinkThreadSafety:
    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        """The network engine shares one sink between the client (main
        thread) and the daemon (loop thread); concurrent writes must
        land as whole lines, never interleaved mid-record."""
        import threading

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        per_thread = 500

        def write(thread_id):
            for index in range(per_thread):
                sink.write_record({"record": "event", "type": "probe",
                                   "t": 0.0, "shard": thread_id,
                                   "seq": index,
                                   "pad": "x" * 64})

        threads = [threading.Thread(target=write, args=(tid,))
                   for tid in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        records = read_jsonl(path)  # raises on any corrupt line
        assert len(records) == 4 * per_thread
        for tid in range(4):
            ours = [r["seq"] for r in records if r["shard"] == tid]
            # Per-thread order is preserved even under contention.
            assert ours == list(range(per_thread))
