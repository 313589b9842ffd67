"""End-to-end observability: a CoreService run yields a schema-valid
trace, the inspector replays it, and the ``obs`` CLI round-trips it."""

import json

import pytest

from repro.cli import main as cli_main
from repro.journal import records as rec
from repro.obs.inspect import format_report, load_trace
from repro.obs.recorder import Recorder
from repro.obs.schema import validate_file, validate_jsonl, validate_records
from repro.obs.tracer import chrome_trace_from_records
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One small full-stack CoreService run, recorded and written out."""
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(2, 3), fan_in=2), seed=4)
    recorder = Recorder()
    service = CoreService(
        repo=monorepo.repo,
        strategy=SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
        config=CoreServiceConfig(workers=3),
        recorder=recorder,
    )
    changes = [
        monorepo.make_clean_change(name) for name in monorepo.target_names(0)[:3]
    ]
    changes.append(
        monorepo.make_broken_change(monorepo.target_names(0)[0], step="unit_test")
    )
    for change in changes:
        service.submit(change)
    decisions = service.pump()
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    recorder.write_jsonl(str(path))
    return recorder, str(path), decisions


class TestGoldenTrace:
    def test_trace_is_schema_valid(self, recorded_run):
        _, path, _ = recorded_run
        assert validate_file(path) == []

    def test_trace_carries_the_stack_signal(self, recorded_run):
        recorder, path, decisions = recorded_run
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        spans = [r for r in records if r["type"] == "span"]
        names = {r["name"] for r in spans}
        assert {"pump", "epoch", "build"} <= names
        # Every build span parents onto an epoch span.
        by_id = {r["id"]: r for r in spans}
        builds = [r for r in spans if r["name"] == "build"]
        assert builds
        for build in builds:
            assert by_id[build["parent"]]["name"] == "epoch"
            assert build["track"].startswith("change:")
        # One epoch span per epoch record: a plan that started or aborted
        # nothing has none.
        for epoch in (r for r in spans if r["name"] == "epoch"):
            attrs = epoch["attrs"]
            assert attrs["builds_started"] + attrs["builds_aborted"] > 0
        # The metrics line includes the acceptance-criteria series.
        metrics = records[-1]["metrics"]
        for family in (
            "planner_builds_started_total",
            "speculation_selections_total",
            "conflict_analyses_total",
            "build_steps_cached_total",
            "service_turnaround_minutes",
        ):
            assert family in metrics, family
        assert (
            metrics["planner_decisions_total"]["kind"] == "counter"
        )
        total_decided = sum(
            s["value"] for s in metrics["planner_decisions_total"]["series"]
        )
        assert total_decided == len(decisions)

    def test_prometheus_dump_covers_all_layers(self, recorded_run):
        recorder, _, _ = recorded_run
        text = recorder.prometheus_text()
        for needle in (
            "# TYPE planner_builds_started_total counter",
            "# TYPE planner_queue_depth gauge",
            "# TYPE conflict_pair_checks_total counter",
            "# TYPE build_steps_cached_total counter",
            "planner_build_duration_minutes_bucket",
        ):
            assert needle in text, needle

    def test_chrome_trace_nests_epochs_under_pump(self, recorded_run):
        recorder, _, _ = recorded_run
        trace = chrome_trace_from_records(recorder.trace())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        service_tid = next(
            e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["args"]["name"] == "service"
        )
        pumps = [
            e for e in complete if e["name"] == "pump" and e["tid"] == service_tid
        ]
        epochs = [
            e for e in complete if e["name"] == "epoch" and e["tid"] == service_tid
        ]
        assert pumps and epochs
        # Chrome nests by containment: each epoch must sit inside a pump
        # or precede the pump entirely (epochs from submit-time replans).
        spans = [(p["ts"], p["ts"] + p["dur"]) for p in pumps]
        inside = sum(
            1
            for e in epochs
            if any(s <= e["ts"] and e["ts"] + e["dur"] <= t for s, t in spans)
        )
        assert inside > 0

    def test_report_renders(self, recorded_run):
        _, path, _ = recorded_run
        report = format_report(load_trace(path))
        assert "epoch loop" in report
        assert "-- metrics --" in report
        assert "builds started" in report

    def test_report_counts_an_open_build_as_running(self, tmp_path):
        """A trace written mid-run holds build spans with no outcome yet;
        the report counts them as running, not failed."""
        key = BuildKey("c1", frozenset())
        recorder = Recorder(clock=lambda: 4.0)
        recorder.event(rec.epoch_record(1.0, [key], [], 1))
        recorder.event(rec.build_start_record(1.0, key, 10.0))
        path = tmp_path / "mid.jsonl"
        recorder.write_jsonl(str(path))
        report = format_report(load_trace(str(path)))
        assert "succeeded 0, aborted 0, failed 0, running 1" in report


class TestValidatorRejections:
    def _valid_records(self):
        recorder = Recorder(clock=lambda: 0.0)
        recorder.finish_span(recorder.start_span("epoch"))
        recorder.counter("c_total").inc()
        return recorder.jsonl_records()

    def test_happy_path(self):
        assert validate_records(self._valid_records()) == []

    def test_missing_meta(self):
        records = self._valid_records()[1:]
        errors = validate_records(records)
        assert any("meta" in e for e in errors)

    def test_missing_metrics_tail(self):
        records = self._valid_records()[:-1]
        errors = validate_records(records)
        assert any("metrics" in e for e in errors)

    def test_records_after_metrics_rejected(self):
        records = self._valid_records()
        records.append(records[1])
        errors = validate_records(records)
        assert any("after the trailing" in e for e in errors)

    def test_duplicate_span_ids_rejected(self):
        records = self._valid_records()
        records.insert(2, dict(records[1]))
        errors = validate_records(records)
        assert any("duplicate span id" in e for e in errors)

    def test_dangling_parent_rejected(self):
        records = self._valid_records()
        span = dict(records[1])
        span["id"], span["parent"] = 999, 998
        records.insert(2, span)
        errors = validate_records(records)
        assert any("does not exist" in e for e in errors)

    def test_inverted_span_rejected(self):
        records = self._valid_records()
        span = dict(records[1])
        span["id"], span["start"], span["end"] = 77, 5.0, 1.0
        records.insert(2, span)
        errors = validate_records(records)
        assert any("before it starts" in e for e in errors)

    def test_bad_json_line_reported(self):
        errors = validate_jsonl('{"type": "meta"\nnot json')
        assert any("invalid JSON" in e for e in errors)

    def test_empty_trace_reported(self):
        assert any("empty" in e for e in validate_jsonl(""))


class TestObsCli:
    def test_validate_report_trace_roundtrip(self, recorded_run, tmp_path, capsys):
        _, path, _ = recorded_run
        assert cli_main(["obs", "validate", path]) == 0
        assert "valid" in capsys.readouterr().out

        assert cli_main(["obs", "report", path]) == 0
        assert "epoch loop" in capsys.readouterr().out

        out_path = tmp_path / "run.trace.json"
        assert cli_main(["obs", "trace", path, "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert "traceEvents" in json.loads(out_path.read_text())

    def test_trace_with_null_event_spans_still_reads(
        self, recorded_run, tmp_path, capsys
    ):
        """Traces written while events carried a ``"span"`` key (``null`` on
        every event) still validate and report as they did."""
        _, path, _ = recorded_run
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        events = [r for r in records if r["type"] == "event"]
        assert events and all("span" not in r for r in events)
        for event in events:
            event["span"] = None
        old_path = tmp_path / "old.jsonl"
        old_path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        assert validate_file(str(old_path)) == []
        assert format_report(load_trace(str(old_path))) == format_report(
            load_trace(path)
        )
        assert cli_main(["obs", "report", str(old_path)]) == 0
        old_report = capsys.readouterr().out
        assert cli_main(["obs", "report", path]) == 0
        assert old_report == capsys.readouterr().out

    def test_validate_fails_on_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert cli_main(["obs", "validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err
