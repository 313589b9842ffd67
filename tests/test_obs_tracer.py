"""Unit tests for the recorder's pump spans (clock, closing, rendering)
and the trace exports: ordering, Chrome conversion."""

import json

import pytest

from repro.errors import TraceError
from repro.journal import records as rec
from repro.obs.recorder import Recorder
from repro.obs.tracer import chrome_trace_from_records
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
def recorder(clock):
    return Recorder(clock)


class TestSpans:
    """The recorder's ``pump`` spans: dicts stamped by the bound clock."""

    def test_start_and_end_come_from_the_bound_clock(self, recorder, clock):
        clock.now = 1.0
        pump = recorder.start_span("pump", category="service", pending=3)
        clock.now = 4.0
        recorder.finish_span(pump, decisions=2)
        assert recorder.tracer == [pump]
        assert (pump["id"], pump["start"], pump["end"]) == (1, 1.0, 4.0)
        assert pump["parent"] is None and pump["track"] == "service"
        assert pump["attrs"] == {"pending": 3, "decisions": 2}

    def test_double_close_rejected(self, recorder):
        span = recorder.start_span("s")
        recorder.finish_span(span)
        with pytest.raises(TraceError, match="already closed"):
            recorder.finish_span(span)

    def test_clock_rebinding(self, recorder):
        span = recorder.start_span("s")
        recorder.bind_clock(lambda: 42.0)
        recorder.finish_span(span)
        assert span["end"] == 42.0
        assert recorder.trace()[0]["end"] == 42.0

    def test_open_span_renders_to_the_horizon(self, recorder, clock):
        first = recorder.start_span("a")
        clock.now = 2.0
        recorder.start_span("b")
        clock.now = 7.0
        assert [(s["id"], s["end"]) for s in recorder.trace()] == [(1, 7.0), (2, 7.0)]
        # Rendering closes nothing, and an earlier horizon never ends a
        # span before it starts.
        assert all(span["end"] is None for span in recorder.tracer)
        assert [s["end"] for s in recorder.trace(at=1.0)] == [1.0, 2.0]
        recorder.finish_span(first)
        assert first["end"] == 7.0

    def test_export_mid_pump_leaves_the_span_open(self, recorder, clock, tmp_path):
        pump = recorder.start_span("pump")
        clock.now = 3.0
        recorder.write_jsonl(str(tmp_path / "run.jsonl"))
        recorder.write_chrome_trace(str(tmp_path / "run.trace.json"))
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert json.loads(lines[1])["end"] == 3.0
        # The export rendered the open span; the pump still closes it.
        clock.now = 5.0
        recorder.finish_span(pump, decisions=1)
        assert recorder.trace()[0]["end"] == 5.0


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
