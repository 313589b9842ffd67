"""Unit tests for the worker pool (the planner's worker count) and the
build controllers."""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.errors import NoWorkerAvailableError
from repro.planner.controller import FullStackBuildController, LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.strategies.single_queue import SingleQueueStrategy
from repro.types import BuildKey

from .conftest import start_builds

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


def fleet(workers, *durations):
    """A planner over ``workers`` workers and one submitted, independent
    labelled change per duration (ids ``c1``, ``c2``, ...)."""
    planner = PlannerEngine(
        SingleQueueStrategy(),
        LabelBuildController(),
        workers,
        conflict_predicate=lambda a, b: False,
    )
    for index, duration in enumerate(durations, start=1):
        change = labeled(f"c{index}", targets=(f"//t{index}",), duration=duration)
        planner.submit(change, 0.0)
    return planner


class TestWorkerPool:
    """The worker pool is the planner's worker count and its running
    builds: workers are interchangeable, so nothing is placed."""

    def test_assign_release_cycle(self):
        planner = fleet(2, 10.0)
        key = BuildKey("c1")
        start_builds(planner, [key], now=0.0)
        assert planner.busy == 1 and planner.free == 1
        assert key in planner.running
        planner.complete(key, now=10.0)
        assert planner.busy == 0 and not planner.running

    def test_exhaustion_raises(self):
        planner = fleet(1, 10.0, 10.0)
        start_builds(planner, [BuildKey("c1")], now=0.0)
        with pytest.raises(NoWorkerAvailableError):
            start_builds(planner, [BuildKey("c2")], now=0.0)
        assert list(planner.running) == [BuildKey("c1")]

    def test_double_assign_rejected(self):
        planner = fleet(2, 10.0)
        start_builds(planner, [BuildKey("c1")], now=0.0)
        with pytest.raises(ValueError):
            start_builds(planner, [BuildKey("c1")], now=0.0)

    def test_utilization(self):
        planner = fleet(2, 50.0)
        key = BuildKey("c1")
        start_builds(planner, [key], now=0.0)
        planner.complete(key, now=50.0)
        assert planner.busy_minutes(now=100.0) == 50.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            fleet(0)

    def test_utilization_counts_in_flight_builds(self):
        planner = fleet(2, 50.0, 50.0)
        done = BuildKey("c1")
        start_builds(planner, [done], now=0.0)
        planner.complete(done, now=50.0)
        start_builds(planner, [BuildKey("c2")], now=60.0)
        # 50 finished minutes + 40 in-flight minutes.
        assert planner.busy_minutes(now=100.0) == 90.0


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
        without = LabelBuildController(step_elimination=False)
        a = labeled("a", targets=("//x",), duration=40.0)
        b = labeled("b", targets=("//y",), duration=30.0)
        key = BuildKey("b", frozenset({"a"}))
        assert with_elim.execute(key, {"a": a, "b": b}).duration == 30.0
        # STACKING_OVERHEAD = 0.35 of the stacked change's 40 minutes.
        assert without.execute(key, {"a": a, "b": b}).duration == pytest.approx(44.0)

    def test_default_duration_fallback(self):
        controller = LabelBuildController()
        change = labeled("c1", duration=None)
        change.build_duration = None
        assert controller.execute(BuildKey("c1"), {"c1": change}).duration == 30.0


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
