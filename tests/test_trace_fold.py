"""The lifecycle trace is a fold over the service's journal records.

A journaled service run with a recorder and the same journal replayed by
``recover()`` into a fresh recorder must hold the same epoch and build
spans and the same events — names, tracks, sim times, attrs — and give
the same ``/slo`` payload.  Only what no record carries is left out of
the comparison: the pump spans (``CoreService.pump`` opens them; replay
re-drives steps, not pumps) and the worker wall-clock splices.
"""

import pytest

from repro.journal import JournalWriter, fingerprint_digest, recover
from repro.obs.recorder import Recorder
from repro.obs.slo import compute_slo
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


def _changes(monorepo):
    targets = monorepo.target_names()
    changes = [monorepo.make_clean_change(name) for name in targets[:5]]
    changes.append(monorepo.make_broken_change(targets[5], step="unit_test"))
    changes.extend(monorepo.make_conflicting_pair(targets[6]))
    return changes


def _spans(recorder):
    spans = recorder.tracer.spans()
    by_id = {span.span_id: span for span in spans}
    return [
        (
            span.name,
            span.category,
            span.track,
            span.start,
            span.end,
            span.attrs,
            None
            if span.parent_id is None
            else (by_id[span.parent_id].name, by_id[span.parent_id].start),
        )
        for span in spans
        if span.name != "pump" and span.category != "worker"
    ]


def _events(recorder):
    return [
        (event.name, event.category, event.track, event.at, event.attrs)
        for event in recorder.tracer.events()
    ]


@pytest.mark.parametrize(
    "backend, batching",
    [(None, False), (None, True), ("process:2", False)],
)
def test_live_trace_equals_replayed_trace(tmp_path, backend, batching):
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=5)
    predictor = StaticPredictor(success=0.9, conflict=0.1)
    strategy = (
        RiskBatchStrategy(predictor, batch_size=3)
        if batching
        else SubmitQueueStrategy(predictor)
    )
    live = Recorder()
    service = CoreService(
        monorepo.repo,
        strategy,
        config=CoreServiceConfig(
            workers=2,
            journal=JournalWriter(str(tmp_path)),
            build_backend=backend,
        ),
        recorder=live,
    )
    changes = _changes(monorepo)
    try:
        for change in changes[:4]:
            service.submit(change)
        service.pump()
        for change in changes[4:]:
            service.submit(change)
        service.pump()
    finally:
        service.close()
    service.journal.close()

    replayed = Recorder()
    report = recover(str(tmp_path), recorder=replayed, attach=False)
    assert not report.snapshot_restored
    assert fingerprint_digest(report.service) == fingerprint_digest(service)

    live_spans = _spans(live)
    assert {span[0] for span in live_spans} == {"epoch", "build"}
    assert _spans(replayed) == live_spans
    assert _events(replayed) == _events(live)
    names = {event[0] for event in _events(live)}
    assert {"submit", "decision", "commit"} <= names
    if batching:
        assert "batch" in names

    now = service.clock.now
    capacity = service.planner.workers.capacity
    assert compute_slo(
        replayed.tracer.snapshot_records(at=now), now=now, worker_capacity=capacity
    ) == compute_slo(
        live.tracer.snapshot_records(at=now), now=now, worker_capacity=capacity
    )
