"""Unit tests for the recorder facade and the no-op default."""

import json
import time

import pytest

from repro import quickstart_components
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder


class TestRecorder:
    def test_jsonl_has_meta_then_payload_then_metrics(self):
        recorder = Recorder(clock=lambda: 1.0)
        recorder.counter("c_total", "A counter.").inc()
        pump = recorder.start_span("pump")
        recorder.event({"t": "submit", "at": 1.0, "change": {"id": "c1"}})
        recorder.finish_span(pump)
        lines = recorder.to_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == 1
        assert records[0]["clock"] == "simulated-minutes"
        assert records[-1]["type"] == "metrics"
        assert records[-1]["metrics"]["c_total"]["kind"] == "counter"
        middle = {r["type"] for r in records[1:-1]}
        assert middle == {"span", "event"}

    def test_export_closes_leaked_spans(self):
        recorder = Recorder(clock=lambda: 3.0)
        recorder.start_span("leaky")
        records = recorder.jsonl_records()
        span = next(r for r in records if r["type"] == "span")
        assert span["end"] == 3.0

    def test_file_writers(self, tmp_path):
        recorder = Recorder()
        recorder.finish_span(recorder.start_span("epoch"))
        recorder.counter("c_total").inc()
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        recorder.write_jsonl(str(jsonl))
        recorder.write_chrome_trace(str(chrome))
        assert json.loads(jsonl.read_text().splitlines()[0])["type"] == "meta"
        assert "traceEvents" in json.loads(chrome.read_text())
        assert "c_total 1" in recorder.prometheus_text()


class TestNullRecorder:
    def test_is_disabled_and_absorbs_everything(self):
        null = NULL_RECORDER
        assert not null.enabled
        null.bind_clock(lambda: 1.0)
        null.counter("c", "h").inc(5)
        null.gauge("g").set(2.0)
        null.histogram("h").observe(3.0)
        span = null.start_span("s", track="t", epoch=1)
        null.event({"t": "submit", "at": 0.0, "change": {"id": "c1"}})
        assert span is None
        assert null.finish_span(span) is None
        assert null.to_jsonl() == ""
        assert null.prometheus_text() == ""
        assert null.jsonl_records() == []

    def test_write_refused(self, tmp_path):
        with pytest.raises(ValueError):
            NULL_RECORDER.write_jsonl(str(tmp_path / "x.jsonl"))
        with pytest.raises(ValueError):
            NULL_RECORDER.write_chrome_trace(str(tmp_path / "x.json"))

    def test_null_recorder_is_shared_default(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert NullRecorder().enabled is False


class TestDisabledOverhead:
    def test_disabled_recorder_adds_no_measurable_overhead(self):
        """Smoke test: the same tiny simulation with the no-op recorder
        must not be drastically slower than the unrecorded baseline.

        This is a guard against accidentally allocating spans or series
        on the disabled path, not a precision benchmark — the bound is
        deliberately loose so CI noise cannot flake it.
        """

        def run_once(recorder):
            simulation, stream = quickstart_components(
                rate_per_hour=300.0, count=40, workers=20, seed=3,
                recorder=recorder,
            )
            return simulation.run(stream)

        # Warm caches (imports, numpy) before timing anything.
        run_once(NULL_RECORDER)

        start = time.perf_counter()
        baseline_result = run_once(NULL_RECORDER)
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        null_result = run_once(NullRecorder())
        disabled = time.perf_counter() - start

        assert null_result.committed == baseline_result.committed
        assert disabled < baseline * 3 + 0.25

    def test_disabled_run_is_bit_identical_to_live_run(self):
        """Instrumentation must observe, never steer: the same seed must
        produce the same decisions with and without a live recorder."""
        simulation, stream = quickstart_components(count=40, seed=5)
        plain = simulation.run(stream)
        recorded_sim, stream2 = quickstart_components(
            count=40, seed=5, recorder=Recorder()
        )
        recorded = recorded_sim.run(stream2)
        assert plain.committed == recorded.committed
        assert plain.turnarounds == recorded.turnarounds
        assert plain.builds_started == recorded.builds_started
