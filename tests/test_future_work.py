"""Tests for the section-10 future-work features implemented here:
build-preemption grace and independent-change batching."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.planner.workers import WorkerPool
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.sim.simulator import Simulation
from repro.strategies.base import Strategy
from repro.strategies.independent_batch import IndependentBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey, ChangeState

from .conftest import plan_and_resolve

DEV = Developer("dev1")


def labeled(targets=("//m",), ok=True, duration=30.0, rate=0.0, salt=0):
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


class _FlipFlopStrategy(Strategy):
    """Selects a build on odd calls, nothing on even calls."""

    name = "flipflop"

    def __init__(self, key):
        self.key = key
        self.calls = 0

    def select(self, view, budget):
        self.calls += 1
        return [self.key] if self.calls % 2 == 1 else []


class TestPreemptionGrace:
    def _planner(self, grace, key):
        return PlannerEngine(
            strategy=_FlipFlopStrategy(key),
            controller=LabelBuildController(),
            workers=WorkerPool(2),
            conflict_predicate=potential_conflict,
            preemption_grace=grace,
        )

    def test_nearly_done_build_survives_deselection(self):
        change = labeled(duration=30.0)
        key = BuildKey(change.change_id)
        planner = self._planner(grace=10.0, key=key)
        planner.submit(change, 0.0)
        plan_and_resolve(planner, 0.0)                      # starts the build
        result = plan_and_resolve(planner, 25.0)            # deselects; 5 min remaining
        assert result.aborted == []
        assert planner.workers.is_running(key)

    def test_far_from_done_build_still_aborted(self):
        change = labeled(duration=30.0)
        key = BuildKey(change.change_id)
        planner = self._planner(grace=10.0, key=key)
        planner.submit(change, 0.0)
        plan_and_resolve(planner, 0.0)
        result = plan_and_resolve(planner, 5.0)             # 25 min remaining > grace
        assert key in result.aborted

    def test_zero_grace_is_old_behavior(self):
        change = labeled(duration=30.0)
        key = BuildKey(change.change_id)
        planner = self._planner(grace=0.0, key=key)
        planner.submit(change, 0.0)
        plan_and_resolve(planner, 0.0)
        result = plan_and_resolve(planner, 29.0)            # 1 min remaining, no grace
        assert key in result.aborted

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            self._planner(grace=-1.0, key=BuildKey("x"))


class TestIndependentBatchStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndependentBatchStrategy(OraclePredictor(), batch_size=1)
        with pytest.raises(ValueError):
            IndependentBatchStrategy(OraclePredictor(), confidence=1.5)

    def _planner(self, strategy, workers=4):
        return PlannerEngine(
            strategy=strategy,
            controller=LabelBuildController(),
            workers=WorkerPool(workers),
            conflict_predicate=potential_conflict,
        )

    def test_independent_green_changes_batch_and_commit(self):
        strategy = IndependentBatchStrategy(OraclePredictor(), batch_size=3)
        planner = self._planner(strategy)
        changes = [labeled([f"//t{i}"]) for i in range(3)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        result = plan_and_resolve(planner, 3.0)
        assert len(result.started) == 1, "one combined build for the batch"
        key = result.started[0]
        assert key.depth == 2
        planner.complete(key, 40.0)
        for change in changes:
            assert planner.records[change.change_id].state is ChangeState.COMMITTED
            assert "batch" in planner.records[change.change_id].decision_reason

    def test_unlikely_changes_not_batched(self):
        strategy = IndependentBatchStrategy(OraclePredictor(), batch_size=3)
        planner = self._planner(strategy)
        good = labeled(["//a"])
        bad = labeled(["//b"], ok=False)       # oracle knows it fails
        also_good = labeled(["//c"])
        for i, change in enumerate((good, bad, also_good)):
            planner.submit(change, float(i))
        keys = strategy.select(planner.view, budget=8)
        batch_keys = [k for k in keys if k.depth > 0]
        for key in batch_keys:
            assert bad.change_id not in key.assumed
            assert key.change_id != bad.change_id

    def test_failed_batch_dissolves_to_solo_builds(self):
        # Static predictor confidently batches everything; one member is
        # secretly broken, so the combined build fails and members go solo.
        strategy = IndependentBatchStrategy(
            StaticPredictor(success=0.99, conflict=0.0), batch_size=3
        )
        planner = self._planner(strategy)
        changes = [labeled([f"//t{i}"]) for i in range(2)]
        changes.append(labeled(["//t2"], ok=False))
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        result = plan_and_resolve(planner, 3.0)
        (combined,) = [key for key in result.started if key.depth == 2]
        planner.complete(combined, 40.0)
        # Nobody decided yet; batch dissolved.
        assert all(
            planner.records[c.change_id].state is ChangeState.PENDING
            for c in changes
        )
        result = plan_and_resolve(planner, 40.0)
        assert all(key.depth == 0 for key in result.started)
        for key in result.started:
            planner.complete(key, 80.0)
        plan_and_resolve(planner, 80.0)
        for key in plan_and_resolve(planner, 81.0).started:
            planner.complete(key, 120.0)
        states = [planner.records[c.change_id].state for c in changes]
        assert states.count(ChangeState.COMMITTED) == 2
        assert states.count(ChangeState.REJECTED) == 1

    def test_end_to_end_fewer_builds_than_plain_submitqueue(self):
        from repro.experiments.runner import make_stream

        stream = make_stream(200, 60, seed=77)
        batched = Simulation(
            strategy=IndependentBatchStrategy(OraclePredictor(), batch_size=4),
            controller=LabelBuildController(),
            workers=8,
            conflict_predicate=potential_conflict,
        ).run(list(stream))
        plain = Simulation(
            strategy=SubmitQueueStrategy(OraclePredictor()),
            controller=LabelBuildController(),
            workers=8,
            conflict_predicate=potential_conflict,
        ).run(list(stream))
        assert batched.committed + batched.rejected == 60
        # The whole point: better hardware utilization via fewer builds.
        assert batched.builds_finished < plain.builds_finished
        assert batched.committed >= plain.committed - 2
