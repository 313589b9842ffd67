"""Coverage for the smaller public API surfaces."""

import pytest

from repro.buildsys.executor import BuildExecutor, BuildReport
from repro.buildsys.steps import StepResult, StepSpec
from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import UnknownChangeError
from repro.planner.workers import WorkerPool
from repro.types import BuildKey, StepKind
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository

DEV = Developer("dev1")


def labeled(targets=("//m",)):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(target_names=frozenset(targets)),
    )


class TestSnapshotMappingProtocol:
    def test_contains_and_get(self):
        repo = Repository({"a.py": "a0"})
        snapshot = repo.snapshot()
        assert "a.py" in snapshot
        assert "b.py" not in snapshot
        assert 42 not in snapshot  # non-string keys are just absent
        assert snapshot.get("b.py", "fallback") == "fallback"

    def test_iteration_and_len_after_layers(self):
        repo = Repository({"a.py": "a0", "b.py": "b0"})
        repo.commit_to_mainline(Patch.deleting(["b.py"]))
        repo.commit_to_mainline(Patch.adding({"c.py": "c0"}))
        snapshot = repo.snapshot()
        assert sorted(snapshot) == ["a.py", "c.py"]
        assert len(snapshot) == 2


class TestQueueAccessors:
    def test_get_and_unknown(self):
        queue = ConflictGraph(lambda a, b: False)
        change = labeled()
        queue.add(change)
        assert queue.change(change.change_id) is change
        with pytest.raises(UnknownChangeError):
            queue.neighbors("nope")
        with pytest.raises(UnknownChangeError):
            queue.remove("nope")


class TestConflictGraphAccessors:
    def test_change_lookup_and_order(self):
        graph = ConflictGraph(lambda a, b: False)
        first, second = labeled(), labeled()
        graph.add(first)
        graph.add(second)
        assert graph.change(first.change_id) is first
        assert graph.in_order() == [first.change_id, second.change_id]
        assert len(graph) == 2
        assert first.change_id in graph
        with pytest.raises(UnknownChangeError):
            graph.change("nope")


class TestWorkerPoolAccounting:
    def test_load_imbalance(self):
        pool = WorkerPool(2)
        key = BuildKey("c1")
        pool.assign(key, now=0.0)
        pool.release(key, now=40.0)
        assert pool.load_imbalance() == pytest.approx(40.0)

    def test_running_builds_listing(self):
        pool = WorkerPool(2)
        keys = [BuildKey("c1"), BuildKey("c2")]
        for key in keys:
            pool.assign(key, now=0.0)
        assert set(pool.running_builds()) == set(keys)

    def test_utilization_zero_at_time_zero(self):
        assert WorkerPool(1).busy_minutes(0.0) == 0.0


class TestBuildReportAccessors:
    def test_failures_listing(self):
        report = BuildReport(
            results=[
                StepResult(StepSpec("//a:a", StepKind.COMPILE), True),
                StepResult(StepSpec("//a:a", StepKind.UNIT_TEST), False, log="boom"),
            ],
            targets_built=["//a:a"],
        )
        assert not report.success
        assert [r.spec.kind for r in report.failures()] == [StepKind.UNIT_TEST]
        assert report.first_failure().log == "boom"

    def test_empty_report_succeeds(self):
        report = BuildReport()
        assert report.success
        assert report.first_failure() is None
        assert report.steps_executed == 0
