"""Cross-process trace propagation: worker-side step spans folded back
into the parent's trace under the dispatching build span.

Covers the fold's worker-span splice and its purity, the worker-side
capture (only when the request is ``traced``), the dispatch-path
integration over both backends, and the regression that aborted
dispatches must still close their build spans with a terminal attribute
instead of running to the horizon.
"""

import copy
import math
from collections import Counter

import pytest

from repro.journal import fingerprint_digest
from repro.journal import records as rec
from repro.obs.recorder import Recorder, fold
from repro.obs.schema import validate_records
from repro.obs.tracer import chrome_trace_from_records
from repro.parallel.payload import BuildRequest, BuildResponse, WorkerSpan
from repro.parallel.worker import execute_request, reset_worker_state
from repro.predictor.predictors import StaticPredictor
from repro.serve import build_quickstart_service
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

TERMINAL_ATTRS = ("success", "aborted")

KEY = BuildKey("c1", frozenset())


def _framed(records):
    """Wrap bare span/event records in the meta/metrics frame the
    validator requires of a full JSONL stream."""
    return (
        [{"type": "meta", "version": 1, "clock": "simulated-minutes"}]
        + list(records)
        + [{"type": "metrics", "metrics": {}}]
    )


def _response(*step_spans, wall_started=100.0):
    """A traced worker response: two wall seconds of work by pid 7."""
    return BuildResponse(
        build_id=0,
        change_id=KEY.change_id,
        wall_seconds=2.0,
        worker_pid=7,
        wall_started=wall_started,
        step_spans=step_spans,
    )


MERGE = WorkerSpan("merge", "merge", 0.0, 0.5)
COMPILE = WorkerSpan("t:compile", "step", 0.5, 1.5, target="t", step="compile")


def _dispatched(*responses, clock=None):
    """A recorder holding one epoch that starts ``KEY`` at minute 1 (a
    three-minute build) per response, each response attached to its
    ``build_start``; every epoch after the first aborts the dispatch
    before it."""
    recorder = Recorder(clock)
    for response in responses:
        aborted = [KEY] if recorder.records else []
        recorder.event(rec.epoch_record(1.0, [KEY], aborted, 1))
        recorder.event(rec.build_start_record(1.0, KEY, 3.0))
        recorder.attach_worker(response)
    return recorder


def _worker_spans(records):
    return [r for r in records if r["type"] == "span" and r["cat"] == "worker"]


# -- the fold's splice --------------------------------------------------------


class TestSplicePrimitive:
    """A ``build_start`` that took a worker response gets the response's
    spans as closed children, placed by their share of its wall time."""

    def test_splice_inserts_closed_span(self):
        records = _dispatched(_response(MERGE, COMPILE)).trace(at=2.0)
        (build,) = [r for r in records if r["name"] == "build"]
        merge, compile_ = _worker_spans(records)
        for span in (merge, compile_):
            assert span["parent"] == build["id"]
            assert span["track"] == build["track"] == "change:c1"
            assert span["wall_track"] == "worker:pid7"
            assert span["attrs"]["worker_pid"] == 7
        # Three sim minutes over two wall seconds: 1.5 minutes a second.
        assert (merge["start"], merge["end"]) == (1.0, 1.75)
        assert (compile_["start"], compile_["end"]) == (1.75, 4.0)
        assert (merge["wall_start"], merge["wall_end"]) == (100.0, 100.5)
        assert (compile_["wall_start"], compile_["wall_end"]) == (100.5, 102.0)
        assert compile_["attrs"]["target"] == "t"
        assert compile_["attrs"]["step"] == "compile"
        assert validate_records(_framed(records)) == []

    def test_splice_clamps_inverted_worker_interval(self):
        inverted = WorkerSpan("bad", "step", 1.0, -0.5)
        (span,) = _worker_spans(_dispatched(_response(inverted)).trace())
        assert span["start"] == span["end"] == 2.5
        assert span["wall_start"] == span["wall_end"] == 101.0

    def test_splice_wall_edges_are_nan_safe(self):
        # A non-finite or missing wall edge drops the whole wall pair.
        recorder = _dispatched(
            _response(MERGE, wall_started=math.nan),
            _response(MERGE, wall_started=None),
        )
        records = recorder.trace()
        spans = _worker_spans(records)
        assert len(spans) == 2
        for span in spans:
            assert not {"wall_start", "wall_end", "wall_track"} & set(span)
            assert (span["start"], span["end"]) == (1.0, 1.75)
        assert validate_records(_framed(records)) == []

    def test_chrome_wall_process_appears_only_with_wall_spans(self):
        sim_only = Recorder()
        sim_only.event(rec.epoch_record(1.0, [KEY], [], 1))
        sim_only.event(rec.build_start_record(1.0, KEY, 3.0))
        trace = chrome_trace_from_records(sim_only.trace())
        assert {e["pid"] for e in trace["traceEvents"]} == {1}

        dual = chrome_trace_from_records(_dispatched(_response(MERGE)).trace())
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
        assert wall_rows == {"worker:pid7"}


class TestFold:
    def test_open_spans_end_at_horizon(self):
        clock = [0.0]
        recorder = _dispatched(_response(MERGE), clock=lambda: clock[0])
        clock[0] = 4.0
        records = recorder.trace()
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["build"]["end"] == spans["epoch"]["end"] == 4.0
        assert validate_records(_framed(records)) == []
        # An explicit horizon before a span's start never inverts it.
        early = recorder.trace(at=-1.0)
        opened = [r for r in early if r["name"] in ("epoch", "build")]
        assert all(r["end"] == r["start"] == 1.0 for r in opened)

    def test_fold_is_pure(self):
        recorder = _dispatched(_response(MERGE, COMPILE))
        recorder.event(rec.build_finish_record(4.0, KEY, True))
        recorder.event(rec.decision_record(4.0, "c1", True, "", 4.0))
        records = copy.deepcopy(recorder.records)
        first = fold(recorder.records, recorder._workers, [], 5.0)
        assert fold(recorder.records, recorder._workers, [], 5.0) == first
        assert recorder.records == records
        assert recorder.trace(at=5.0) == first

    def test_key_dispatched_twice_gets_each_response_under_its_own_build(self):
        recorder = _dispatched(_response(MERGE), _response(COMPILE))
        recorder.event(rec.build_finish_record(4.0, KEY, True))
        records = recorder.trace(at=5.0)
        builds = [r for r in records if r["name"] == "build"]
        assert [b["attrs"] for b in builds] == [{"aborted": True}, {"success": True}]
        children = [
            [r["name"] for r in _worker_spans(records) if r["parent"] == build["id"]]
            for build in builds
        ]
        assert children == [["merge"], ["t:compile"]]


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
        records = traced_run.recorder.trace()
        by_id = {r["id"]: r for r in records if r["type"] == "span"}
        worker_spans = _worker_spans(records)
        assert worker_spans, "dispatch path must splice worker spans"
        for child in worker_spans:
            parent = by_id[child["parent"]]
            assert parent["name"] == "build"
            assert parent["start"] <= child["start"] + 1e-9
            if not parent["attrs"].get("aborted"):
                # Live builds contain their worker steps by construction;
                # aborted parents legitimately end early while the
                # worker's real work ran on (that's the wasted work the
                # trace is meant to show).
                assert child["end"] <= parent["end"] + 1e-9
            assert child["attrs"]["worker_pid"] > 0
            assert child["track"] == parent["track"]

    def test_every_build_span_reaches_a_terminal_state(self, traced_run):
        """Aborted dispatches still close their spans."""
        records = traced_run.recorder.trace()
        builds = [r for r in records if r["name"] == "build"]
        assert builds
        for span in builds:
            attrs = span["attrs"]
            assert any(key in attrs for key in TERMINAL_ATTRS), span

    def test_live_snapshot_validates(self, traced_run):
        records = traced_run.recorder.trace()
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
            records = core.recorder.trace()
            worker_spans = _worker_spans(records)
            assert worker_spans
            for span in worker_spans:
                assert "wall_start" in span and "wall_end" in span
                assert span["wall_track"].startswith("worker:pid")
            chrome = chrome_trace_from_records(records)
            assert {e["pid"] for e in chrome["traceEvents"]} == {1, 2}
        finally:
            core.close()


class _SelectsNothingOnce(SubmitQueueStrategy):
    """SubmitQueue that selects nothing at its third epoch: the builds
    running then are aborted, and the stall guard or a later epoch
    dispatches them again."""

    def __init__(self, predictor):
        super().__init__(predictor)
        self._epochs = 0

    def select(self, view, budget):
        self._epochs += 1
        return [] if self._epochs == 3 else super().select(view, budget)


def test_one_merge_span_under_each_worker_build():
    """Each build span of a traced ``process:2`` run holds exactly one
    ``merge`` worker span — its own response's — also for a key that was
    aborted and then dispatched again."""
    files, batch = _mint(seed=11, count=6)
    recorder = Recorder()
    core = CoreService(
        Repository(dict(files)),
        _SelectsNothingOnce(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(workers=2, build_backend="process:2"),
        recorder=recorder,
    )
    try:
        for change in copy.deepcopy(batch):
            core.submit(change)
        core.pump()
    finally:
        core.close()
    starts = Counter(
        (r["key"]["c"], tuple(r["key"]["a"]))
        for r in recorder.records
        if r["t"] == "build_start"
    )
    assert max(starts.values()) > 1, "no key was dispatched twice"
    records = recorder.trace()
    builds = [r["id"] for r in records if r["name"] == "build"]
    assert len(builds) == sum(starts.values())
    merges = Counter(
        r["parent"] for r in _worker_spans(records) if r["name"] == "merge"
    )
    assert merges == Counter(builds)


def _mint(seed, count):
    from repro.parallel.workload import mint_cell

    return mint_cell(count=count, seed=seed)
