"""One summary of a run, two feeders (`repro.metrics.summary`).

`RunSummary.from_planner` reads the planner's tables and
`RunSummary.from_records` folds the lifecycle records.  Over one
journaled, recorded run with broken changes and aborted speculation,
both must give the same counts, turnarounds, build minutes, wasted
minutes and the benchmark's five contract numbers, bit for bit — from the
recorder's records, from the journal file, and from the service
`recover()` rebuilds from that file — and `/slo` over a window covering
the run must agree with them.
"""

import pytest

from repro.journal import JournalWriter, events_path, read_journal, recover
from repro.metrics.summary import RunSummary
from repro.obs.recorder import Recorder
from repro.obs.slo import compute_slo
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

WORKERS = 3


def _facts(summary):
    return (
        summary.submitted,
        summary.committed,
        summary.rejected,
        summary.turnarounds,
        summary.builds_started,
        summary.builds_finished,
        summary.builds_succeeded,
        summary.builds_aborted,
        summary.build_minutes,
        summary.wasted_minutes,
        summary.contract(),
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    journal_dir = str(tmp_path_factory.mktemp("journal"))
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=5)
    targets = monorepo.target_names()
    recorder = Recorder()
    service = CoreService(
        monorepo.repo,
        SubmitQueueStrategy(StaticPredictor(0.9, 0.05)),
        config=CoreServiceConfig(
            workers=WORKERS, journal=JournalWriter(journal_dir, snapshot_every=5)
        ),
        recorder=recorder,
    )
    # Broken changes on the base layer sit under everything built on
    # them, so their failures abort the speculation stacked on top.
    waves = [
        [
            monorepo.make_broken_change(targets[0], step="unit_test"),
            monorepo.make_clean_change(targets[2]),
            monorepo.make_clean_change(targets[3]),
            monorepo.make_clean_change(targets[5]),
        ],
        [
            monorepo.make_clean_change(targets[1]),
            monorepo.make_broken_change(targets[4], step="unit_test"),
            *monorepo.make_conflicting_pair(targets[6]),
        ],
    ]
    try:
        for wave in waves:
            for change in wave:
                service.submit(change)
            service.pump()
    finally:
        service.close()
    service.journal.close()
    return service, recorder, journal_dir


def test_the_run_has_rejections_and_aborts(run):
    service, _, _ = run
    summary = RunSummary.from_planner(service.planner, service.clock.now)
    assert summary.rejected >= 2
    assert summary.builds_aborted > 0
    assert summary.wasted_minutes > 0.0
    assert summary.committed + summary.rejected == summary.submitted == 8


def test_records_feeder_equals_planner_feeder(run):
    service, recorder, journal_dir = run
    now = service.clock.now
    planner = RunSummary.from_planner(service.planner, now)
    recorded = RunSummary.from_records(recorder.records, capacity=WORKERS)
    journaled = RunSummary.from_records(
        read_journal(events_path(journal_dir)).records
    )
    assert _facts(recorded) == _facts(planner)
    assert _facts(journaled) == _facts(planner)
    # Busy minutes are summed in another order (per build, not per
    # worker), so they agree to rounding.
    assert recorded.busy_minutes == pytest.approx(planner.busy_minutes)
    assert recorded.utilization == pytest.approx(planner.utilization)


def test_recovered_planner_gives_the_same_summary(run):
    service, recorder, journal_dir = run
    report = recover(journal_dir, attach=False)
    recovered = report.service
    assert recovered.clock.now == service.clock.now
    summary = RunSummary.from_planner(recovered.planner, recovered.clock.now)
    assert _facts(summary) == _facts(RunSummary.from_records(recorder.records))


def test_slo_over_the_whole_run_agrees(run):
    service, recorder, _ = run
    now = service.clock.now
    summary = RunSummary.from_planner(service.planner, now)
    payload = compute_slo(
        recorder.records, now=now, window_minutes=now, worker_capacity=WORKERS
    )
    assert payload["turnaround_minutes"] == summary.turnaround
    assert payload["decisions"] == {
        "committed": summary.committed,
        "rejected": summary.rejected,
    }
    assert payload["speculation"] == {
        "builds": summary.builds_finished + summary.builds_aborted,
        "succeeded": summary.builds_succeeded,
        "aborted": summary.builds_aborted,
        "hit_rate": summary.hit_rate,
    }
    assert payload["workers"]["busy_minutes"] == pytest.approx(summary.busy_minutes)
    assert payload["workers"]["utilization"] == pytest.approx(summary.utilization)
