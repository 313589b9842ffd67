"""Unit tests for risk-aware speculative batching with culprit bisection:
the batching math in repro.speculation.batching and the strategy protocol
(key shape, passing-prefix commits, deterministic halving, exact culprit
isolation, termination) against the real planner."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.speculation.batching import (
    BatchPlan,
    bisect_halves,
    joint_success_probability,
    plan_batches,
)
from repro.strategies.risk_batch import RiskBatchStrategy
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


def _planner(strategy, workers=2):
    return PlannerEngine(
        strategy=strategy,
        controller=LabelBuildController(),
        workers=workers,
        conflict_predicate=potential_conflict,
    )


def _drain(planner, start=0.0, step=40.0, epochs=64):
    """Plan/complete to quiescence; returns decisions in commit order."""
    decisions = []
    now = start
    for _ in range(epochs):
        result = plan_and_resolve(planner, now)
        running = list(planner.running)
        if not running:
            break
        now += step
        for key in running:
            decisions.extend(planner.complete(key, now))
    return decisions


class TestBisectHalves:
    def test_even_split(self):
        first, second = bisect_halves(("a", "b", "c", "d"))
        assert first == ("a", "b") and second == ("c", "d")

    def test_odd_split_front_half_smaller(self):
        first, second = bisect_halves(("a", "b", "c"))
        assert first == ("a",) and second == ("b", "c")

    def test_halves_strictly_shrink(self):
        members = tuple(f"c{i}" for i in range(9))
        frontier = [members]
        while frontier:
            group = frontier.pop()
            if len(group) == 1:
                continue
            first, second = bisect_halves(group)
            assert first + second == group
            assert 0 < len(first) < len(group)
            assert 0 < len(second) < len(group)
            frontier.extend((first, second))

    def test_too_small_to_bisect_rejected(self):
        with pytest.raises(ValueError):
            bisect_halves(("only",))


class TestBatchPlanning:
    def test_joint_success_multiplies_member_and_pair_terms(self):
        p = joint_success_probability(
            ["a", "b"],
            p_success={"a": 0.9, "b": 0.8}.__getitem__,
            p_conflict=lambda x, y: 0.1,
        )
        assert p == pytest.approx(0.9 * 0.8 * 0.9)

    def test_plan_batches_groups_low_risk_in_submission_order(self):
        plans = plan_batches(
            ["a", "b", "c", "d"],
            p_success=lambda cid: 0.95,
            p_conflict=lambda x, y: 0.0,
            commit_mass=lambda cid: 1.0,
            batch_size=4,
        )
        assert [plan.members for plan in plans] == [("a", "b", "c", "d")]
        assert isinstance(plans[0], BatchPlan)
        assert plans[0].joint_success == pytest.approx(0.95 ** 4)
        assert plans[0].value == pytest.approx(4.0)

    def test_risky_member_breaks_the_batch(self):
        plans = plan_batches(
            ["a", "bad", "c", "d"],
            p_success=lambda cid: 0.1 if cid == "bad" else 0.95,
            p_conflict=lambda x, y: 0.0,
            commit_mass=lambda cid: 1.0,
            batch_size=4,
        )
        for plan in plans:
            assert "bad" not in plan.members

    def test_conflicting_pair_never_shares_a_batch(self):
        plans = plan_batches(
            ["a", "b", "c"],
            p_success=lambda cid: 0.99,
            p_conflict=lambda x, y: 0.9 if {x, y} == {"a", "b"} else 0.0,
            commit_mass=lambda cid: 1.0,
            batch_size=4,
        )
        for plan in plans:
            assert not {"a", "b"} <= set(plan.members)

    def test_singletons_are_not_batches(self):
        plans = plan_batches(
            ["a"],
            p_success=lambda cid: 0.99,
            p_conflict=lambda x, y: 0.0,
            commit_mass=lambda cid: 1.0,
            batch_size=4,
        )
        assert plans == []


class TestRiskBatchStrategy:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            RiskBatchStrategy(OraclePredictor(), batch_size=1)
        with pytest.raises(ValueError):
            RiskBatchStrategy(OraclePredictor(), member_confidence=1.5)
        with pytest.raises(ValueError):
            RiskBatchStrategy(OraclePredictor(), min_joint_success=-0.1)

    def test_batch_key_stacks_earlier_members(self):
        strategy = RiskBatchStrategy(OraclePredictor(), batch_size=4)
        planner = _planner(strategy, workers=2)
        changes = [labeled([f"//t{i}"]) for i in range(4)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        keys = strategy.select(planner.view, budget=2)
        batch_keys = [k for k in keys if strategy.scheduled_batch_members(k)]
        assert batch_keys, "saturated queue must form a batch"
        key = batch_keys[0]
        members = strategy.scheduled_batch_members(key)
        assert members == tuple(c.change_id for c in changes)
        assert key.change_id == members[-1]
        assert key.assumed == frozenset(members[:-1])

    def test_passing_batch_commits_members_in_submission_order(self):
        strategy = RiskBatchStrategy(OraclePredictor(), batch_size=4)
        planner = _planner(strategy, workers=2)
        changes = [labeled([f"//t{i}"]) for i in range(4)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        result = plan_and_resolve(planner, 4.0)
        (batch,) = [
            key for key in result.started
            if strategy.scheduled_batch_members(key)
        ]
        decisions = planner.complete(batch, 40.0)
        batch_decisions = [d for d in decisions if "batch" in d.reason]
        assert [d.change_id for d in batch_decisions] == [
            c.change_id for c in changes
        ]
        for change in changes:
            record = planner.records[change.change_id]
            assert record.state is ChangeState.COMMITTED
            assert "risk batch of 4 passed" in record.decision_reason
        assert strategy.batch_stats.batches_landed == 1
        assert strategy.batch_stats.members_committed == 4

    def test_failed_batch_bisects_to_the_exact_culprit(self):
        # The static predictor confidently batches all four; one is
        # secretly broken.  Bisection must land the three innocents and
        # reject exactly the culprit.
        strategy = RiskBatchStrategy(
            StaticPredictor(success=0.99, conflict=0.0), batch_size=4
        )
        planner = _planner(strategy, workers=2)
        changes = [labeled([f"//t{i}"], ok=(i != 2)) for i in range(4)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        _drain(planner, start=4.0)
        states = {
            c.change_id: planner.records[c.change_id].state for c in changes
        }
        culprit = changes[2].change_id
        assert states[culprit] is ChangeState.REJECTED
        for change in changes:
            if change.change_id != culprit:
                assert states[change.change_id] is ChangeState.COMMITTED
        # Fresh batch failed, then the (c2, c3) half failed again; the
        # (c0, c1) half landed whole and the singletons went decisive.
        assert strategy.batch_stats.bisections == 2
        assert strategy.batch_stats.batches_landed == 1
        assert strategy.batch_stats.deepest_bisection >= 1

    def test_bisection_terminates_with_every_member_decided(self):
        # Worst case: every member broken — halving must bottom out at
        # singletons and reject each one, never looping.
        strategy = RiskBatchStrategy(
            StaticPredictor(success=0.99, conflict=0.0), batch_size=8
        )
        planner = _planner(strategy, workers=2)
        changes = [labeled([f"//t{i}"], ok=False) for i in range(8)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        _drain(planner, start=8.0)
        for change in changes:
            assert (
                planner.records[change.change_id].state
                is ChangeState.REJECTED
            )
        assert strategy._bisect_queue == []
        assert strategy._groups == {}

    def test_no_batches_below_saturation(self):
        # With capacity for every pending change, one speculation path
        # per change decides faster than any batch: the contention gate
        # keeps batching out of the under-loaded regime.
        strategy = RiskBatchStrategy(OraclePredictor(), batch_size=4)
        planner = _planner(strategy, workers=8)
        changes = [labeled([f"//t{i}"]) for i in range(3)]
        for i, change in enumerate(changes):
            planner.submit(change, float(i))
        keys = strategy.select(planner.view, budget=8)
        assert all(not strategy.scheduled_batch_members(k) for k in keys)
        assert len(keys) == 3

    def test_conflicting_ancestors_keep_changes_out_of_batches(self):
        # Two changes on the same target conflict: the later one has an
        # undecided conflicting ancestor, so it may not join a fresh
        # batch (batch members must be pairwise independent).
        strategy = RiskBatchStrategy(
            StaticPredictor(success=0.99, conflict=0.0), batch_size=4
        )
        planner = _planner(strategy, workers=2)
        first = labeled(["//shared"], rate=1.0, salt=1)
        rival = labeled(["//shared"], rate=1.0, salt=1)
        fillers = [labeled([f"//t{i}"]) for i in range(2)]
        for i, change in enumerate([first, rival] + fillers):
            planner.submit(change, float(i))
        keys = strategy.select(planner.view, budget=2)
        for key in keys:
            members = strategy.scheduled_batch_members(key)
            assert rival.change_id not in members
