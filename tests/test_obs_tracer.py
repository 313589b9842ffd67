"""Unit tests for the span tracer (nesting, closing) and the trace
exports: ordering, Chrome conversion."""

import json

import pytest

from repro.errors import TraceError
from repro.journal import records as rec
from repro.obs.recorder import Recorder
from repro.obs.tracer import SpanTracer, chrome_trace_from_records
from repro.types import BuildKey


class FakeClock:
    """A settable simulated clock (minutes)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


class TestSpans:
    def test_spans_nest_under_explicit_parents(self, tracer, clock):
        pump = tracer.start("pump")
        clock.now = 1.0
        epoch = tracer.start("epoch", parent=pump)
        # Without a parent a span is a root, whatever else is open.
        loose = tracer.start("loose")
        clock.now = 3.0
        tracer.finish_open()
        assert epoch.parent_id == pump.span_id
        assert pump.parent_id is None and loose.parent_id is None
        assert (pump.start, pump.end) == (0.0, 3.0)
        assert (epoch.start, epoch.end) == (1.0, 3.0)
        assert epoch.end - epoch.start == 2.0

    def test_explicit_span_outlives_parent_frame(self, tracer, clock):
        epoch = tracer.start("epoch")
        build = tracer.start("build", track="change:c1", parent=epoch)
        clock.now = 2.0
        tracer.finish(epoch)
        # The epoch closed; the build keeps running and still links to it.
        clock.now = 9.0
        tracer.finish(build, success=True)
        assert build.parent_id == epoch.span_id
        assert build.end == 9.0
        assert build.attrs["success"] is True

    def test_double_close_rejected(self, tracer):
        span = tracer.start("s")
        tracer.finish(span)
        with pytest.raises(TraceError, match="already closed"):
            tracer.finish(span)

    def test_close_before_open_rejected(self, tracer, clock):
        clock.now = 5.0
        span = tracer.start("s")
        with pytest.raises(TraceError, match="before it opened"):
            tracer.finish(span, at=4.0)

    def test_clock_rebinding(self, tracer):
        span = tracer.start("s")
        tracer.bind_clock(lambda: 42.0)
        tracer.finish(span)
        assert span.end == 42.0
        assert tracer.now() == 42.0

    def test_finish_open_sweeps_leaks(self, tracer, clock):
        tracer.start("a")
        tracer.start("b")
        clock.now = 7.0
        assert tracer.finish_open() == 2
        assert all(span.end == 7.0 for span in tracer.spans())
        assert tracer.finish_open() == 0


class TestExports:
    """The recorder's trace: its pump spans plus the fold of its records."""

    def _sample(self, clock):
        recorder = Recorder(clock)
        key = BuildKey("c1", frozenset())
        pump = recorder.start_span("pump")
        for record in (
            rec.epoch_record(1.0, [key], [], 1),
            rec.build_start_record(1.0, key, 3.0),
            rec.decision_record(2.0, "c0", True, "", 2.0),
            rec.epoch_record(2.0, [], [], 0),
            rec.build_finish_record(4.0, key, True),
        ):
            recorder.event(record)
        clock.now = 4.0
        recorder.finish_span(pump)
        return recorder

    def test_jsonl_records_sorted_and_typed(self, clock):
        records = self._sample(clock).trace()
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert len(spans) == 4 and len(events) == 1
        assert "span" not in events[0], "an event belongs to no span"
        starts = [r.get("start", r.get("at")) for r in records]
        assert starts == sorted(starts)
        assert [r["name"] for r in spans] == ["pump", "epoch", "build", "epoch"]

    def test_chrome_trace_structure(self, clock):
        trace = chrome_trace_from_records(self._sample(clock).trace())
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 4 and len(instants) == 1
        # One thread_name record per distinct track.
        assert {m["args"]["name"] for m in metadata} == {"service", "change:c1"}
        # Simulated minutes scale to microseconds; the next epoch record
        # closes an epoch.
        epoch = next(e for e in complete if e["name"] == "epoch")
        assert epoch["ts"] == pytest.approx(60_000_000.0)
        assert epoch["dur"] == pytest.approx(60_000_000.0)
        # Parent links survive in args.
        build = next(e for e in complete if e["name"] == "build")
        assert build["args"]["parent_span_id"] == epoch["args"]["span_id"]

    def test_chrome_trace_roundtrips_through_records(self, clock, tmp_path):
        recorder = self._sample(clock)
        path = tmp_path / "run.trace.json"
        recorder.write_chrome_trace(str(path))
        assert json.loads(path.read_text()) == chrome_trace_from_records(
            recorder.trace()
        )
