"""Tests for repro.obs.trace — spans, events, capture/replay, JSONL."""

import io
import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import trace
from repro.obs.export import read_trace, validate_record, validate_trace


@pytest.fixture(autouse=True)
def _tracing_off():
    trace.disable()
    yield
    trace.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not trace.is_enabled()
        assert trace.tracer() is None
        assert trace.current_trace_id() is None
        assert trace.current_span_id() is None

    def test_disabled_span_is_a_stopwatch(self):
        with trace.span("anything", foo=1) as sp:
            pass
        assert isinstance(sp, trace.DisabledSpan)
        assert sp.span_id is None
        assert sp.duration_s >= 0.0

    def test_disabled_event_is_a_no_op(self):
        trace.event("sweep", sweep=3)  # must not raise nor emit

    def test_disabled_span_swallows_nothing(self):
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("x")


class TestSpans:
    def test_span_emits_record_with_ids(self):
        tracer = trace.enable(None)
        with trace.span("outer", depth=0) as outer:
            assert trace.current_span_id() == outer.span_id
            with trace.span("inner") as inner:
                assert trace.current_span_id() == inner.span_id
        assert trace.current_span_id() is None
        records = tracer.records
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"depth": 0}
        assert outer_rec["trace_id"] == inner_rec["trace_id"]

    def test_span_ids_unique(self):
        trace.enable(None)
        ids = set()
        for _ in range(100):
            with trace.span("s") as sp:
                ids.add(sp.span_id)
        assert len(ids) == 100

    def test_error_status_recorded(self):
        tracer = trace.enable(None)
        with pytest.raises(RuntimeError):
            with trace.span("fails"):
                raise RuntimeError("nope")
        (record,) = tracer.records
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "RuntimeError"

    def test_events_attach_to_current_span(self):
        tracer = trace.enable(None)
        with trace.span("owner") as sp:
            trace.event("tick", n=1)
        event, span_rec = tracer.records
        assert event["kind"] == "event"
        assert event["span_id"] == sp.span_id
        assert event["attrs"] == {"n": 1}
        assert span_rec["kind"] == "span"

    def test_set_attaches_attributes(self):
        tracer = trace.enable(None)
        with trace.span("s") as sp:
            sp.set(cache="hit")
        assert tracer.records[0]["attrs"]["cache"] == "hit"

    def test_thread_parenthood_is_isolated(self):
        tracer = trace.enable(None)
        seen = {}

        def worker():
            # context vars do not leak the main thread's open span
            seen["parent"] = trace.current_span_id()
            with trace.span("child-thread"):
                pass

        with trace.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        child = next(r for r in tracer.records if r["name"] == "child-thread")
        assert seen["parent"] is None
        assert child["parent_id"] is None


class TestJsonlRoundTrip:
    def test_file_round_trip_validates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.enable(path)
        with trace.span("root", seed=7):
            with trace.span("child"):
                trace.event("sweep", model="gibbs", sweep=0)
        trace.disable()
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["event", "span", "span"]
        validate_trace(records)
        for record in records:
            assert record["v"] == trace.TRACE_SCHEMA_VERSION

    def test_appending_runs_concatenates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            trace.enable(path)
            with trace.span("run"):
                pass
            trace.disable()
        records = read_trace(path)
        assert len(records) == 2
        assert len({r["trace_id"] for r in records}) == 2
        validate_trace(records)

    def test_numpy_attrs_serialise(self, tmp_path):
        import numpy as np

        path = tmp_path / "trace.jsonl"
        trace.enable(path)
        with trace.span("np", value=np.float64(1.5), n=np.int64(3)):
            pass
        trace.disable()
        (record,) = read_trace(path)
        assert record["attrs"] == {"value": 1.5, "n": 3}

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "span"}\n')
        with pytest.raises(ObservabilityError, match=":1"):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_trace(tmp_path / "absent.jsonl")

    def test_validate_record_rejects_wrong_version(self):
        with pytest.raises(ObservabilityError, match="schema version"):
            validate_record({"kind": "event", "v": 999})

    def test_validate_trace_rejects_duplicate_ids(self):
        record = {
            "kind": "span", "v": 1, "trace_id": "t", "span_id": "a",
            "parent_id": None, "name": "x", "start_unix": 0.0,
            "duration_s": 0.0, "status": "ok", "pid": 1, "attrs": {},
        }
        with pytest.raises(ObservabilityError, match="duplicate"):
            validate_trace([record, dict(record)])


class TestCaptureReplay:
    def test_capture_buffers_and_restores(self):
        tracer = trace.enable(None)
        with trace.capture() as captured:
            with trace.span("in-worker"):
                trace.event("sweep", model="gibbs")
        assert trace.tracer() is tracer
        assert len(captured) == 2
        assert not tracer.records

    def test_replay_grafts_onto_live_trace(self):
        with trace.capture() as captured:
            with trace.span("worker-root"):
                trace.event("sweep")
        tracer = trace.enable(None)
        with trace.span("parent") as parent:
            n = trace.replay(captured)
        assert n == 2
        replayed = [r for r in tracer.records if r.get("forwarded")]
        assert len(replayed) == 2
        root = next(r for r in replayed if r["kind"] == "span")
        assert root["parent_id"] == parent.span_id
        assert all(r["trace_id"] == tracer.trace_id for r in replayed)

    def test_replay_disabled_is_a_no_op(self):
        assert trace.replay([{"kind": "span"}]) == 0

    def test_jsonl_merge_of_forwarded_records(self, tmp_path):
        with trace.capture() as captured:
            with trace.span("worker-root"):
                pass
        path = tmp_path / "trace.jsonl"
        trace.enable(path)
        with trace.span("parent"):
            trace.replay(captured)
        trace.disable()
        records = read_trace(path)
        validate_trace(records)
        forwarded = [r for r in records if r.get("forwarded")]
        assert len(forwarded) == 1


class TestConfiguration:
    def test_enable_stream_sink(self):
        buffer = io.StringIO()
        trace.enable(buffer)
        with trace.span("s"):
            pass
        trace.disable()
        (line,) = [l for l in buffer.getvalue().splitlines() if l]
        assert json.loads(line)["name"] == "s"
