"""Unit tests for the worker pool and build controllers."""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.errors import NoWorkerAvailableError
from repro.planner.controller import FullStackBuildController, LabelBuildController
from repro.planner.workers import WorkerPool
from repro.types import BuildKey

DEV = Developer("dev1")


def labeled(name, targets=("//m",), ok=True, rate=0.0, salt=0, duration=30.0):
    return Change(
        change_id=name,
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=ok,
            target_names=frozenset(targets),
            conflict_salt=salt,
            real_conflict_rate=rate,
        ),
        build_duration=duration,
    )


class TestWorkerPool:
    def test_assign_release_cycle(self):
        pool = WorkerPool(2)
        key = BuildKey("c1")
        pool.assign(key, now=0.0)
        assert pool.busy == 1 and pool.free == 1
        assert pool.is_running(key)
        pool.release(key, now=10.0)
        assert pool.busy == 0

    def test_exhaustion_raises(self):
        pool = WorkerPool(1)
        pool.assign(BuildKey("c1"), now=0.0)
        with pytest.raises(NoWorkerAvailableError):
            pool.assign(BuildKey("c2"), now=0.0)

    def test_double_assign_rejected(self):
        pool = WorkerPool(2)
        pool.assign(BuildKey("c1"), now=0.0)
        with pytest.raises(ValueError):
            pool.assign(BuildKey("c1"), now=0.0)

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            WorkerPool(1).release(BuildKey("c1"), now=0.0)

    def test_least_loaded_assignment(self):
        pool = WorkerPool(2)
        key1 = BuildKey("c1")
        pool.assign(key1, now=0.0)
        pool.release(key1, now=100.0)  # worker 0 now has 100 busy-minutes
        index = pool.assign(BuildKey("c2"), now=100.0)
        assert index == 1  # the idle worker gets the next build

    def test_utilization(self):
        pool = WorkerPool(2)
        key = BuildKey("c1")
        pool.assign(key, now=0.0)
        pool.release(key, now=50.0)
        assert pool.busy_minutes(now=100.0) == 50.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_utilization_counts_in_flight_builds(self):
        pool = WorkerPool(2)
        done = BuildKey("c1")
        pool.assign(done, now=0.0)
        pool.release(done, now=50.0)
        pool.assign(BuildKey("c2"), now=60.0)
        # 50 finished minutes + 40 in-flight minutes.
        assert pool.busy_minutes(now=100.0) == 90.0

    def test_load_imbalance_with_and_without_in_flight(self):
        pool = WorkerPool(2)
        done = BuildKey("c1")
        pool.assign(done, now=0.0)
        pool.release(done, now=30.0)  # worker 0: 30 busy-minutes
        running = BuildKey("c2")
        pool.assign(running, now=30.0)  # goes to idle worker 1
        # Finished work only: worker 1 has accrued nothing yet.
        assert pool.load_imbalance() == pytest.approx(30.0)
        # Including in-flight time, worker 1 has 20 minutes at now=50.
        assert pool.load_imbalance(now=50.0) == pytest.approx(10.0)


class TestDurationHistory:
    def test_release_feeds_ewma(self):
        pool = WorkerPool(2)
        key = BuildKey("c1")
        pool.assign(key, now=0.0)
        pool.release(key, now=40.0)
        assert pool.estimate("c1") == pytest.approx(40.0)

    def test_ewma_update_rule(self):
        pool = WorkerPool(2, ewma_alpha=0.5)
        pool.observe_duration("c1", 40.0)
        pool.observe_duration("c1", 20.0)
        assert pool.estimate("c1") == pytest.approx(30.0)

    def test_aborted_release_keeps_history_clean(self):
        pool = WorkerPool(2)
        key = BuildKey("c1")
        pool.assign(key, now=0.0)
        pool.release(key, now=5.0, completed=False)
        assert pool.estimate("c1") is None

    def test_assignment_order_is_lpt_over_estimates(self):
        pool = WorkerPool(4)
        pool.observe_duration("short", 5.0)
        pool.observe_duration("long", 50.0)
        keys = [
            BuildKey("cold_a"),
            BuildKey("short"),
            BuildKey("long"),
            BuildKey("cold_b"),
        ]
        ordered = pool.assignment_order(keys)
        # History-backed builds first, longest first; cold builds keep
        # their submitted order after them.
        assert [key.change_id for key in ordered] == [
            "long",
            "short",
            "cold_a",
            "cold_b",
        ]

    def test_assignment_order_without_history_is_identity(self):
        pool = WorkerPool(4)
        keys = [BuildKey("a"), BuildKey("b"), BuildKey("c")]
        assert pool.assignment_order(keys) == keys

    def test_history_capacity_is_bounded(self):
        pool = WorkerPool(1, history_capacity=2)
        pool.observe_duration("c1", 1.0)
        pool.observe_duration("c2", 2.0)
        pool.observe_duration("c3", 3.0)
        assert pool.estimate("c1") is None  # evicted LRU
        assert pool.estimate("c2") == pytest.approx(2.0)
        assert pool.estimate("c3") == pytest.approx(3.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkerPool(2, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            WorkerPool(2, ewma_alpha=1.5)
        with pytest.raises(ValueError):
            WorkerPool(2, history_capacity=0)


class TestLabelBuildController:
    def test_success_and_duration(self):
        controller = LabelBuildController()
        change = labeled("c1", duration=42.0)
        execution = controller.execute(BuildKey("c1"), {"c1": change})
        assert execution.success
        assert execution.duration == 42.0

    def test_individually_broken_fails(self):
        controller = LabelBuildController()
        change = labeled("c1", ok=False)
        execution = controller.execute(BuildKey("c1"), {"c1": change})
        assert not execution.success

    def test_stacked_conflict_fails(self):
        controller = LabelBuildController()
        a = labeled("a", rate=1.0, salt=1)
        b = labeled("b", rate=1.0, salt=2)
        execution = controller.execute(
            BuildKey("b", frozenset({"a"})), {"a": a, "b": b}
        )
        assert not execution.success

    def test_broken_stack_member_fails_build(self):
        controller = LabelBuildController()
        broken = labeled("a", ok=False)
        fine = labeled("b", targets=("//n",))
        execution = controller.execute(
            BuildKey("b", frozenset({"a"})), {"a": broken, "b": fine}
        )
        assert not execution.success

    def test_step_elimination_cost_model(self):
        with_elim = LabelBuildController(step_elimination=True)
        without = LabelBuildController(step_elimination=False, stacking_overhead=0.5)
        a = labeled("a", targets=("//x",), duration=40.0)
        b = labeled("b", targets=("//y",), duration=30.0)
        key = BuildKey("b", frozenset({"a"}))
        assert with_elim.execute(key, {"a": a, "b": b}).duration == 30.0
        assert without.execute(key, {"a": a, "b": b}).duration == pytest.approx(50.0)

    def test_default_duration_fallback(self):
        controller = LabelBuildController(default_duration=7.0)
        change = labeled("c1", duration=None)
        change.build_duration = None
        assert controller.execute(BuildKey("c1"), {"c1": change}).duration == 7.0


class TestFullStackBuildController:
    def test_clean_change_builds_and_commits(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        change = monorepo.make_clean_change()
        execution = controller.execute(
            BuildKey(change.change_id), {change.change_id: change}
        )
        assert execution.success
        assert execution.steps_executed > 0
        head_before = monorepo.repo.head()
        controller.on_commit(change, {change.change_id: change})
        assert monorepo.repo.head() != head_before
        assert monorepo.repo.is_green()

    def test_broken_change_fails(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        change = monorepo.make_broken_change()
        execution = controller.execute(
            BuildKey(change.change_id), {change.change_id: change}
        )
        assert not execution.success
        assert "FAIL" in execution.failure_reason or execution.failure_reason

    def test_conflicting_pair_full_stack(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        first, second = monorepo.make_conflicting_pair()
        ok_first = controller.execute(
            BuildKey(first.change_id), {first.change_id: first}
        )
        ok_second = controller.execute(
            BuildKey(second.change_id), {second.change_id: second}
        )
        combined = controller.execute(
            BuildKey(second.change_id, frozenset({first.change_id})),
            {first.change_id: first, second.change_id: second},
        )
        assert ok_first.success and ok_second.success
        assert not combined.success

    def test_textual_merge_conflict_fails_build(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        target = monorepo.target_names()[0]
        a = monorepo.make_clean_change(target)
        b = monorepo.make_clean_change(target)
        # Same file edited twice with different content: merge conflict.
        combined = controller.execute(
            BuildKey(b.change_id, frozenset({a.change_id})),
            {a.change_id: a, b.change_id: b},
        )
        assert not combined.success
        assert "merge conflict" in combined.failure_reason

    def test_cache_shared_between_builds(self, monorepo):
        cache = ArtifactCache()
        controller = FullStackBuildController(monorepo.repo, cache=cache)
        change = monorepo.make_clean_change()
        first = controller.execute(
            BuildKey(change.change_id), {change.change_id: change}
        )
        second = controller.execute(
            BuildKey(change.change_id), {change.change_id: change}
        )
        assert second.steps_executed == 0
        assert second.steps_cached >= first.steps_executed
        assert second.duration < first.duration
