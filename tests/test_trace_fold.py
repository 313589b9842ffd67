"""The lifecycle trace is a fold over the service's journal records.

A journaled service run with a recorder and the same journal replayed by
``recover()`` into a fresh recorder must hold the same records — the
journal's own, less its bookkeeping — and so fold to the same epoch and
build spans and the same events (names, tracks, sim times, attrs) and
give the same ``/slo`` payload.  Only what no record carries is left out
of the trace comparison: the pump spans (``CoreService.pump`` opens them;
replay re-drives steps, not pumps) and the worker wall-clock spans.
"""

import pytest

from repro.journal import (
    JournalWriter,
    events_path,
    fingerprint_digest,
    read_journal,
    recover,
)
from repro.journal import records as rec
from repro.obs.recorder import Recorder
from repro.obs.slo import compute_slo
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: Journal records ``CoreService._emit`` does not write (the journal's own
#: bookkeeping), so the recorder never holds them.
_NOT_EMITTED = {rec.INIT, rec.PUMP_END, rec.SNAPSHOT}

def _changes(monorepo):
    targets = monorepo.target_names()
    changes = [monorepo.make_clean_change(name) for name in targets[:5]]
    changes.append(monorepo.make_broken_change(targets[5], step="unit_test"))
    changes.extend(monorepo.make_conflicting_pair(targets[6]))
    return changes


def _trace(recorder, at):
    """The folded trace without ids: parents become ``(name, start)``,
    and ``pump`` spans and worker spans — which no record carries (replay
    re-drives steps, not pumps, and dispatches nothing) — are left out."""
    records = recorder.trace(at=at)
    by_id = {r["id"]: r for r in records if r["type"] == "span"}
    out = []
    for r in records:
        if r["type"] == "event":
            out.append(("event", r["name"], r["cat"], r["track"], r["at"], r["attrs"]))
        elif r["name"] != "pump" and r["cat"] != "worker":
            parent = by_id.get(r["parent"])
            out.append(
                (
                    "span",
                    r["name"],
                    r["cat"],
                    r["track"],
                    r["start"],
                    r["end"],
                    r["attrs"],
                    None if parent is None else (parent["name"], parent["start"]),
                )
            )
    return out


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

    # One representation: the records are the journal's, kept as emitted.
    assert replayed.records == live.records
    journaled = read_journal(events_path(str(tmp_path))).records
    assert live.records == [r for r in journaled if r["t"] not in _NOT_EMITTED]

    now = service.clock.now
    live_trace = _trace(live, now)
    assert {r[1] for r in live_trace if r[0] == "span"} == {"epoch", "build"}
    assert _trace(replayed, now) == live_trace
    names = {r[1] for r in live_trace if r[0] == "event"}
    assert {"submit", "decision", "commit"} <= names
    if batching:
        assert "batch" in names

    capacity = service.planner.workers.capacity
    assert compute_slo(
        replayed.records, now=now, worker_capacity=capacity
    ) == compute_slo(live.records, now=now, worker_capacity=capacity)
