"""Cross-process trace propagation: worker-side step spans spliced back
into the parent tracer under the dispatching build span.

Covers the tracer splice/snapshot primitives, the worker-side capture
(only when the request is ``traced``), the dispatch-path
integration over both backends, and the satellite regression: superseded
and aborted dispatches must still close their build spans with a
terminal attribute instead of leaking to ``finish_open``.
"""

import copy
import math

import pytest

from repro.errors import TraceError
from repro.journal import fingerprint_digest
from repro.obs.recorder import Recorder
from repro.obs.schema import validate_records
from repro.obs.tracer import SpanTracer
from repro.parallel.payload import BuildRequest
from repro.parallel.worker import execute_request, reset_worker_state
from repro.predictor.predictors import StaticPredictor
from repro.serve import build_quickstart_service
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

TERMINAL_ATTRS = ("success", "aborted", "superseded")


def _framed(records):
    """Wrap bare span/event records in the meta/metrics frame the
    validator requires of a full JSONL stream."""
    return (
        [{"type": "meta", "version": 1, "clock": "simulated-minutes"}]
        + list(records)
        + [{"type": "metrics", "metrics": {}}]
    )


# -- tracer primitives --------------------------------------------------------


class TestSplicePrimitive:
    def test_splice_inserts_closed_span(self):
        tracer = SpanTracer()
        span = tracer.splice(
            "step",
            1.0,
            2.5,
            parent_id=None,
            category="worker",
            track="change:c1",
            wall_start=100.0,
            wall_end=100.5,
            wall_track="worker:pid7",
            kind="step",
        )
        assert span.done and span.duration == pytest.approx(1.5)
        assert span.wall_start == 100.0 and span.wall_end == 100.5
        assert span.wall_track == "worker:pid7"
        assert tracer.spans() == [span]
        assert validate_records(_framed(tracer.snapshot_records())) == []

    def test_splice_rejects_inverted_sim_interval(self):
        tracer = SpanTracer()
        with pytest.raises(TraceError):
            tracer.splice("bad", 2.0, 1.0)

    def test_splice_wall_edges_are_nan_safe(self):
        tracer = SpanTracer()
        # A non-finite edge drops the whole wall pair.
        nan = tracer.splice("s", 0.0, 1.0, wall_start=math.nan, wall_end=5.0)
        assert nan.wall_start is None and nan.wall_end is None
        half = tracer.splice("s", 0.0, 1.0, wall_start=5.0, wall_end=None)
        assert half.wall_start is None and half.wall_end is None
        # An inverted wall pair clamps to a zero-width wall span.
        clamped = tracer.splice("s", 0.0, 1.0, wall_start=5.0, wall_end=4.0)
        assert clamped.wall_start == clamped.wall_end == 5.0
        assert validate_records(_framed(tracer.snapshot_records())) == []

    def test_snapshot_records_renders_open_spans_without_mutation(self):
        clock = [0.0]
        tracer = SpanTracer(clock=lambda: clock[0])
        open_span = tracer.start("build", track="change:c1")
        clock[0] = 4.0
        records = tracer.snapshot_records()
        (record,) = [r for r in records if r["type"] == "span"]
        assert record["end"] == 4.0
        assert open_span.end is None, "snapshot must not close the span"
        assert validate_records(_framed(records)) == []
        # An explicit horizon before the span's start never inverts it.
        early = tracer.snapshot_records(at=-1.0)
        assert early[0]["end"] == open_span.start

    def test_chrome_wall_process_appears_only_with_wall_spans(self):
        tracer = SpanTracer()
        tracer.splice("sim-only", 0.0, 1.0, track="service")
        sim_only = tracer.snapshot_chrome_trace()
        assert {e["pid"] for e in sim_only["traceEvents"]} == {1}

        tracer.splice(
            "walled", 0.0, 1.0, wall_start=10.0, wall_end=11.0,
            wall_track="worker:pid1",
        )
        dual = tracer.snapshot_chrome_trace()
        events = dual["traceEvents"]
        assert {e["pid"] for e in events} == {1, 2}
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names == {"simulated clock (minutes)", "wall clock (seconds)"}
        wall_rows = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name" and e["pid"] == 2
        }
        assert wall_rows == {"worker:pid1"}


# -- worker-side capture ------------------------------------------------------


def _request(**overrides):
    synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 2), fan_in=2), seed=3)
    change = synth.make_clean_change(target_name=synth.target_names()[0])
    fields = dict(
        build_id=0,
        change_id=change.change_id,
        base_commit_id=synth.repo.head(),
        base_snapshot=synth.repo.snapshot().to_dict(),
        assumed=(),
        patch=change.patch,
    )
    fields.update(overrides)
    return BuildRequest(**fields)


class TestWorkerCapture:
    def test_untraced_request_ships_no_spans(self):
        reset_worker_state()
        response = execute_request(_request())
        assert response.step_spans == ()
        assert response.wall_started == 0.0

    def test_traced_request_ships_merge_and_step_spans(self):
        reset_worker_state()
        response = execute_request(_request(traced=True))
        assert response.error is None
        assert response.wall_started > 0.0
        kinds = [span.kind for span in response.step_spans]
        assert kinds[0] == "merge"
        assert kinds.count("step") == len(response.steps)
        for span, step in zip(
            [s for s in response.step_spans if s.kind == "step"], response.steps
        ):
            assert span.name == f"{step.target}:{step.kind.value}"
            assert span.target == step.target and span.step == step.kind.value
        for span in response.step_spans:
            assert span.wall_offset >= 0.0 and span.wall_duration >= 0.0
            assert span.wall_offset + span.wall_duration <= (
                response.wall_seconds + 1e-6
            )


# -- dispatch-path integration ------------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    core, handlers = build_quickstart_service(
        changes=10, drafts=0, seed=7, workers=4, backend="process:1"
    )
    yield core
    core.close()


class TestDispatchSplice:
    def test_worker_spans_splice_under_build_spans(self, traced_run):
        spans = traced_run.recorder.tracer.spans()
        by_id = {span.span_id: span for span in spans}
        worker_spans = [s for s in spans if s.category == "worker"]
        assert worker_spans, "dispatch path must splice worker spans"
        for child in worker_spans:
            parent = by_id[child.parent_id]
            assert parent.name == "build"
            assert parent.start <= child.start + 1e-9
            if not (
                parent.attrs.get("aborted") or parent.attrs.get("superseded")
            ):
                # Live builds contain their worker steps by construction;
                # aborted/superseded parents legitimately end early while
                # the worker's real work ran on (that's the wasted work
                # the trace is meant to show).
                assert child.end <= parent.end + 1e-9
            assert child.attrs["worker_pid"] > 0
            assert child.track == parent.track

    def test_every_build_span_reaches_a_terminal_state(self, traced_run):
        """Satellite: superseded/aborted dispatches still close their spans."""
        builds = [
            s for s in traced_run.recorder.tracer.spans() if s.name == "build"
        ]
        assert builds
        for span in builds:
            assert span.done, f"build span {span.span_id} leaked open"
            assert any(key in span.attrs for key in TERMINAL_ATTRS), span.attrs

    def test_live_snapshot_validates(self, traced_run):
        records = traced_run.recorder.tracer.snapshot_records()
        assert validate_records(_framed(records)) == []

    def test_tracing_never_changes_outcomes(self):
        # Change ids come from a process-global counter: mint the cell
        # once and deep-copy it per run (Change is mutable).
        files, batch = _mint(seed=11, count=8)

        def run(recorder):
            core = CoreService(
                Repository(dict(files)),
                SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
                config=CoreServiceConfig(workers=4, build_backend="process:1"),
                **({"recorder": recorder} if recorder is not None else {}),
            )
            for change in copy.deepcopy(batch):
                core.submit(change)
            core.pump()
            digest = fingerprint_digest(core)
            core.close()
            return digest

        assert run(Recorder()) == run(None)

    def test_process_backend_ships_spans_across_the_boundary(self):
        core, _ = build_quickstart_service(
            changes=6, drafts=0, seed=3, workers=3, backend="process:2"
        )
        try:
            worker_spans = [
                s
                for s in core.recorder.tracer.spans()
                if s.category == "worker"
            ]
            assert worker_spans
            for span in worker_spans:
                assert span.wall_start is not None and span.wall_end is not None
                assert str(span.wall_track).startswith("worker:pid")
            chrome = core.recorder.tracer.snapshot_chrome_trace()
            assert {e["pid"] for e in chrome["traceEvents"]} == {1, 2}
        finally:
            core.close()


def _mint(seed, count):
    from repro.parallel.workload import mint_cell

    return mint_cell(count=count, seed=seed)
