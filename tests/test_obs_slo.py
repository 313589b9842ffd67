"""Rolling-window SLO aggregation (`repro.obs.slo`).

`compute_slo` renders the records feeder of `RunSummary` over a window,
so these tests drive it with hand-built lifecycle records: window cuts,
turnaround percentiles, speculation hit rate, worker utilization, and
the live `SloAggregator` view over a real recorded run.
"""

import pytest

from repro.journal import records as rec
from repro.obs.recorder import Recorder
from repro.obs.slo import DEFAULT_WINDOW_MINUTES, SloAggregator, compute_slo
from repro.types import BuildKey


def _decision(at, verdict="committed", turnaround=None):
    return rec.decision_record(at, "c1", verdict == "committed", "", turnaround)


def _build(start, end, change="c1", success=None, aborted=False):
    """A build started at ``start`` that finished (or was aborted) at
    ``end``: its ``build_start`` record and the record that closed it."""
    key = BuildKey(change, frozenset())
    closing = (
        rec.epoch_record(end, [], [key], 1)
        if aborted
        else rec.build_finish_record(end, key, success)
    )
    return [rec.build_start_record(start, key, end - start), closing]


class TestComputeSlo:
    def test_empty_records(self):
        payload = compute_slo([])
        assert payload["window_minutes"] == DEFAULT_WINDOW_MINUTES
        assert payload["turnaround_minutes"]["count"] == 0
        assert payload["decisions"] == {"committed": 0, "rejected": 0}
        assert payload["speculation"]["hit_rate"] == 0.0
        assert payload["workers"]["utilization"] is None

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            compute_slo([], window_minutes=0.0)
        with pytest.raises(ValueError):
            SloAggregator(Recorder(), window_minutes=-1.0)

    def test_turnaround_percentiles_from_decision_events(self):
        records = [_decision(float(i), turnaround=float(i + 1)) for i in range(10)]
        payload = compute_slo(records, window_minutes=100.0)
        summary = payload["turnaround_minutes"]
        assert summary["count"] == 10
        assert summary["p50"] == pytest.approx(5.5)
        assert payload["decisions"]["committed"] == 10

    def test_window_cuts_old_decisions(self):
        records = [
            _decision(0.0, turnaround=100.0),  # outside
            _decision(50.0, verdict="rejected", turnaround=2.0),
            _decision(60.0, turnaround=4.0),
        ]
        payload = compute_slo(records, now=60.0, window_minutes=20.0)
        assert payload["now"] == 60.0
        assert payload["decisions"] == {"committed": 1, "rejected": 1}
        assert payload["turnaround_minutes"]["count"] == 2
        assert payload["turnaround_minutes"]["mean"] == pytest.approx(3.0)

    def test_now_defaults_to_latest_record_horizon(self):
        records = [_decision(10.0), *_build(0.0, 30.0, success=True)]
        payload = compute_slo(records)
        assert payload["now"] == 30.0

    def test_speculation_hit_rate_excludes_aborted(self):
        records = [
            *_build(0.0, 10.0, "c1", success=True),
            *_build(0.0, 10.0, "c2", success=False),
            *_build(0.0, 10.0, "c3", success=True),
            *_build(0.0, 10.0, "c4", aborted=True),
        ]
        payload = compute_slo(records, window_minutes=20.0)
        spec = payload["speculation"]
        assert spec["builds"] == 4
        assert spec["aborted"] == 1
        assert spec["succeeded"] == 2
        # 2 clean successes out of 3 builds that ran to a verdict.
        assert spec["hit_rate"] == pytest.approx(2.0 / 3.0)

    def test_builds_count_only_when_they_finish_in_window(self):
        records = [
            *_build(0.0, 5.0, "c1", success=True),  # ends before lo
            *_build(8.0, 12.0, "c2", success=True),  # ends inside
        ]
        payload = compute_slo(records, now=20.0, window_minutes=10.0)
        assert payload["speculation"]["builds"] == 1
        # ...but both contribute the busy minutes they overlap the window.
        assert payload["workers"]["busy_minutes"] == pytest.approx(2.0)

    def test_utilization_against_capacity(self):
        records = [
            *_build(0.0, 10.0, "c1", success=True),
            *_build(0.0, 10.0, "c2", success=True),
        ]
        payload = compute_slo(
            records, now=10.0, window_minutes=10.0, worker_capacity=4
        )
        # 20 busy minutes over 4 workers * 10 minutes of window.
        assert payload["workers"]["utilization"] == pytest.approx(0.5)
        assert payload["workers"]["capacity"] == 4

    def test_non_numeric_turnaround_is_skipped(self):
        records = [
            _decision(1.0, turnaround=True),  # bool is not a time
            _decision(2.0, turnaround="3.0"),
            _decision(3.0, turnaround=4.0),
        ]
        payload = compute_slo(records, window_minutes=10.0)
        assert payload["turnaround_minutes"]["count"] == 1


def _batch(at, kind="landed", size=3, depth=0):
    return rec.batch_record(at, kind, [f"m{i}" for i in range(size)], depth)


class TestBatchingSection:
    def test_absent_without_batch_events(self):
        payload = compute_slo([_decision(1.0)], window_minutes=10.0)
        assert "batching" not in payload

    def test_folds_landed_and_bisected_batches(self):
        records = [
            _batch(1.0, kind="landed", size=4, depth=0),
            _batch(2.0, kind="bisect", size=4, depth=0),
            _batch(3.0, kind="landed", size=2, depth=1),
        ]
        payload = compute_slo(records, window_minutes=10.0)
        batching = payload["batching"]
        assert batching["batches_landed"] == 2
        assert batching["members_committed"] == 6
        assert batching["bisections"] == 1
        assert batching["mean_size"] == pytest.approx(10.0 / 3.0)
        assert batching["max_bisect_depth"] == 1

    def test_window_cuts_old_batch_events(self):
        records = [
            _batch(0.0, kind="landed", size=4),  # outside
            _batch(55.0, kind="landed", size=2),
        ]
        payload = compute_slo(records, now=60.0, window_minutes=20.0)
        batching = payload["batching"]
        assert batching["batches_landed"] == 1
        assert batching["members_committed"] == 2

    def test_batching_run_surfaces_in_live_slo(self):
        from repro.parallel import workload
        from repro.workload.repo_synth import MonorepoSpec

        recorder = Recorder()
        files, changes = workload.mint_cell(
            seed=7, count=6, spec=MonorepoSpec(layers=(3, 4, 3), fan_in=2)
        )
        result = workload.run_cell(
            files, changes, service_workers=2, batching=True,
            recorder=recorder,
        )
        assert result.committed == len(changes)
        payload = compute_slo(recorder.records, window_minutes=1e9)
        assert payload["batching"]["batches_landed"] >= 1
        assert payload["batching"]["members_committed"] >= 2


def _started_build(recorder, key):
    """Take the records of one epoch that starts ``key`` at minute 0."""
    recorder.event(rec.epoch_record(0.0, [key], [], 1))
    recorder.event(rec.build_start_record(0.0, key, 6.0))


class TestSloAggregator:
    def test_snapshot_over_live_tracer(self):
        clock = [0.0]
        recorder = Recorder(clock=lambda: clock[0])
        key = BuildKey("c1", frozenset())
        _started_build(recorder, key)
        clock[0] = 6.0
        recorder.event(rec.build_finish_record(6.0, key, True))
        recorder.event(rec.decision_record(6.0, "c1", True, "", 6.0))
        aggregator = SloAggregator(
            recorder, window_minutes=30.0, worker_capacity=2
        )
        payload = aggregator.snapshot()
        assert payload["decisions"]["committed"] == 1
        assert payload["speculation"] == {
            "builds": 1,
            "succeeded": 1,
            "aborted": 0,
            "hit_rate": 1.0,
        }
        assert payload["turnaround_minutes"]["p50"] == pytest.approx(6.0)

    def test_open_spans_contribute_elapsed_portion(self):
        clock = [0.0]
        recorder = Recorder(clock=lambda: clock[0])
        _started_build(recorder, BuildKey("c1", frozenset()))
        clock[0] = 4.0
        aggregator = SloAggregator(
            recorder, window_minutes=10.0, worker_capacity=1
        )
        payload = aggregator.snapshot(now=4.0)
        # Still running, so no verdict yet — but its 4 elapsed minutes
        # are busy time.
        assert payload["workers"]["busy_minutes"] == pytest.approx(4.0)
        assert payload["speculation"]["builds"] == 0
        # Re-reading never double-counts: the fold is stateless.
        again = aggregator.snapshot(now=4.0)
        assert again["workers"]["busy_minutes"] == pytest.approx(4.0)

    def test_running_build_is_not_a_finished_failure(self):
        clock = [0.0]
        recorder = Recorder(clock=lambda: clock[0])
        done, running = BuildKey("c1", frozenset()), BuildKey("c2", frozenset())
        recorder.event(rec.epoch_record(0.0, [done, running], [], 2))
        recorder.event(rec.build_start_record(0.0, done, 3.0))
        recorder.event(rec.build_start_record(0.0, running, 9.0))
        clock[0] = 3.0
        recorder.event(rec.build_finish_record(3.0, done, True))
        clock[0] = 5.0
        aggregator = SloAggregator(recorder, window_minutes=10.0, worker_capacity=2)
        payload = aggregator.snapshot()
        assert payload["speculation"] == {
            "builds": 1,
            "succeeded": 1,
            "aborted": 0,
            "hit_rate": 1.0,
        }
        # The running build's five minutes so far are busy time.
        assert payload["workers"]["busy_minutes"] == pytest.approx(8.0)

    def test_live_service_slo_is_coherent(self):
        from repro.serve import build_quickstart_service

        core, _ = build_quickstart_service(
            changes=8, drafts=0, seed=5, workers=4, backend=None
        )
        try:
            aggregator = SloAggregator(
                core.recorder,
                window_minutes=1e9,
                worker_capacity=core.planner.workers.capacity,
            )
            payload = aggregator.snapshot()
            decided = (
                payload["decisions"]["committed"]
                + payload["decisions"]["rejected"]
            )
            assert decided == 8
            assert payload["turnaround_minutes"]["count"] == 8
            assert payload["turnaround_minutes"]["p50"] > 0.0
            assert 0.0 < payload["speculation"]["hit_rate"] <= 1.0
            assert 0.0 < payload["workers"]["utilization"] <= 1.0
        finally:
            core.close()
