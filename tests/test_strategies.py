"""Unit tests for every scheduling strategy's selection logic."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.planner.workers import WorkerPool
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.strategies.batch import BatchStrategy
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.single_queue import SingleQueueStrategy
from repro.strategies.speculate_all import SpeculateAllStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey, ChangeState

from .conftest import plan_and_resolve

DEV = Developer("dev1")


def labeled(targets=("//m",), ok=True, rate=0.0, salt=0, duration=30.0):
    return Change(
        change_id=next_change_id(),
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


def planner_with(strategy, workers=8):
    return PlannerEngine(
        strategy=strategy,
        controller=LabelBuildController(),
        workers=WorkerPool(workers),
        conflict_predicate=potential_conflict,
    )


class TestSpeculateAll:
    def test_tree_order_change_major(self):
        planner = planner_with(SpeculateAllStrategy())
        a = labeled(["//x"])
        b = labeled(["//x"])
        c = labeled(["//x"])
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        selected = planner.strategy.select(planner.view, budget=7)
        # Figure 5's full tree: B1; B2, B1.2; B3, B1.3, B2.3, B1.2.3.
        assert selected[0] == BuildKey(a.change_id)
        assert set(selected[1:3]) == {
            BuildKey(b.change_id),
            BuildKey(b.change_id, frozenset({a.change_id})),
        }
        assert len(selected) == 7
        assert len({k for k in selected}) == 7

    def test_budget_swallowed_by_early_changes(self):
        planner = planner_with(SpeculateAllStrategy())
        changes = [labeled(["//x"]) for _ in range(12)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        selected = planner.strategy.select(planner.view, budget=16)
        covered = {key.change_id for key in selected}
        # 1 + 2 + 4 + 8 = 15 builds cover only the first 4 changes.
        assert len(covered) <= 5


class TestOptimistic:
    def test_all_ahead_assumed(self):
        strategy = OptimisticStrategy()
        planner = planner_with(strategy)
        a = labeled(["//x"])
        b = labeled(["//y"])     # independent of a, still stacked
        c = labeled(["//x"])
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        selected = strategy.select(planner.view, budget=10)
        assert selected[0] == BuildKey(a.change_id)
        assert selected[1] == BuildKey(b.change_id, frozenset({a.change_id}))
        assert selected[2] == BuildKey(
            c.change_id, frozenset({a.change_id, b.change_id})
        )

    def test_rejection_restacks(self):
        strategy = OptimisticStrategy()
        planner = planner_with(strategy)
        bad = labeled(["//x"], ok=False)
        good = labeled(["//y"])
        planner.submit(bad, 0.0)
        planner.submit(good, 1.0)
        plan_and_resolve(planner, 0.0)
        planner.complete(BuildKey(bad.change_id), 30.0)
        assert planner.records[bad.change_id].state is ChangeState.REJECTED
        selected = strategy.select(planner.view, budget=10)
        # good no longer assumes the rejected change.
        assert selected == [BuildKey(good.change_id, frozenset())]

    def test_commit_ahead_does_not_change_key(self):
        strategy = OptimisticStrategy()
        planner = planner_with(strategy)
        a = labeled(["//x"])
        b = labeled(["//y"])
        planner.submit(a, 0.0)
        planner.submit(b, 1.0)
        before = strategy.select(planner.view, budget=10)
        plan_and_resolve(planner, 0.0)
        planner.complete(BuildKey(a.change_id), 30.0)  # a commits
        after = strategy.select(planner.view, budget=10)
        key_b_before = [k for k in before if k.change_id == b.change_id][0]
        key_b_after = [k for k in after if k.change_id == b.change_id][0]
        assert key_b_before == key_b_after  # no churn on success

    def test_end_to_end_commits_whole_queue(self):
        strategy = OptimisticStrategy()
        planner = planner_with(strategy, workers=4)
        changes = [labeled([f"//t{i}"]) for i in range(4)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        plan_and_resolve(planner, 0.0)
        for key in list(planner.workers.running_builds()):
            planner.complete(key, 30.0)
        assert all(
            planner.records[c.change_id].state is ChangeState.COMMITTED
            for c in changes
        )


class TestSingleQueue:
    def test_serial_head_plus_independents(self):
        strategy = SingleQueueStrategy()
        planner = planner_with(strategy)
        a = labeled(["//x"])
        b = labeled(["//x"])       # conflicts with a -> waits
        c = labeled(["//y"])       # independent -> parallel
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        selected = strategy.select(planner.view, budget=10)
        assert BuildKey(a.change_id) in selected
        assert BuildKey(c.change_id) in selected
        assert all(key.change_id != b.change_id for key in selected)

    def test_non_adjacent_conflicts_still_serialize(self):
        strategy = SingleQueueStrategy()
        planner = planner_with(strategy)
        a = labeled(["//x"])
        b = labeled(["//y", "//x"])  # conflicts with a
        c = labeled(["//y"])         # conflicts with b but not a
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        selected = strategy.select(planner.view, budget=10)
        # c is non-independent (edge to b), so it waits even though its
        # direct ancestor set ({b}) is the only blocker.
        assert {key.change_id for key in selected} == {a.change_id}


class TestSubmitQueueStrategy:
    def test_oracle_predictor_matches_oracle_strategy(self):
        a = labeled(["//x"], rate=1.0, salt=1)
        b = labeled(["//x"], rate=1.0, salt=2)
        sq = planner_with(SubmitQueueStrategy(OraclePredictor()))
        oracle = planner_with(OracleStrategy())
        for planner in (sq, oracle):
            planner.submit(a, 0.0)
            planner.submit(b, 1.0)
        assert sq.strategy.select(sq.view, 8) == oracle.strategy.select(
            oracle.view, 8
        )

    def test_static_half_reproduces_tree_values(self):
        planner = planner_with(
            SubmitQueueStrategy(StaticPredictor(success=0.5, conflict=0.0))
        )
        a = labeled(["//x"])
        b = labeled(["//x"])
        planner.submit(a, 0.0)
        planner.submit(b, 1.0)
        selected = planner.strategy.select(planner.view, budget=3)
        assert selected[0] == BuildKey(a.change_id)
        assert len(selected) == 3


class TestBatchStrategy:
    def test_whole_batch_commits_on_success(self):
        strategy = BatchStrategy(batch_size=3)
        planner = planner_with(strategy, workers=2)
        changes = [labeled([f"//t{i}"]) for i in range(3)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        result = plan_and_resolve(planner, 0.0)
        assert len(result.started) == 1  # one combined build
        key = result.started[0]
        assert key.depth == 2
        planner.complete(key, 40.0)
        assert all(
            planner.records[c.change_id].state is ChangeState.COMMITTED
            for c in changes
        )

    def test_bisection_isolates_faulty_change(self):
        strategy = BatchStrategy(batch_size=4)
        planner = planner_with(strategy, workers=2)
        changes = [labeled([f"//t{i}"]) for i in range(4)]
        changes[2] = labeled(["//t2"], ok=False)
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        now = 0.0
        # Drive to quiescence: plan, complete, repeat.
        for _ in range(12):
            plan_and_resolve(planner, now)
            running = list(planner.workers.running_builds())
            if not running:
                break
            now += 40.0
            for key in running:
                planner.complete(key, now)
        states = {c.change_id: planner.records[c.change_id].state for c in changes}
        assert states[changes[2].change_id] is ChangeState.REJECTED
        for i in (0, 1, 3):
            assert states[changes[i].change_id] is ChangeState.COMMITTED

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchStrategy(batch_size=0)
