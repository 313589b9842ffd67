"""Tests for change reordering (section 10 future work)."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.planner.workers import WorkerPool
from repro.predictor.predictors import OraclePredictor
from repro.strategies.oracle import OracleStrategy
from repro.strategies.reordering import ReorderingSubmitQueueStrategy
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


def make_planner(strategy=None, workers=4):
    return PlannerEngine(
        strategy=strategy or OracleStrategy(),
        controller=LabelBuildController(),
        workers=WorkerPool(workers),
        conflict_predicate=potential_conflict,
    )


class TestReorderPrimitive:
    def test_swap_moves_dependency(self):
        planner = make_planner()
        slow = labeled(["//x"], duration=100.0)
        fast = labeled(["//x"], duration=10.0)
        planner.submit(slow, 0.0)
        planner.submit(fast, 1.0)
        assert planner.records[fast.change_id].ancestors == [slow.change_id]
        assert planner.reorder(slow.change_id, fast.change_id)
        assert planner.records[fast.change_id].ancestors == []
        assert planner.records[slow.change_id].ancestors == [fast.change_id]

    def test_swap_requires_existing_edge(self):
        planner = make_planner()
        a = labeled(["//x"])
        b = labeled(["//y"])  # independent
        planner.submit(a, 0.0)
        planner.submit(b, 1.0)
        assert not planner.reorder(a.change_id, b.change_id)

    def test_swap_requires_both_pending(self):
        planner = make_planner()
        a = labeled(["//x"])
        b = labeled(["//x"])
        planner.submit(a, 0.0)
        planner.submit(b, 1.0)
        key = plan_and_resolve(planner, 0.0).started[0]
        planner.complete(BuildKey(a.change_id), 30.0)  # a decided
        del key
        assert not planner.reorder(a.change_id, b.change_id)

    def test_chain_of_swaps_allowed_when_acyclic(self):
        planner = make_planner()
        a = labeled(["//x"])
        b = labeled(["//x", "//y"])
        c = labeled(["//y"])          # c conflicts b only
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        # b jumps a, then c jumps b: order becomes c < b < a, still a DAG.
        assert planner.reorder(a.change_id, b.change_id)
        assert planner.reorder(b.change_id, c.change_id)
        assert planner.records[a.change_id].ancestors == [b.change_id]
        assert planner.records[b.change_id].ancestors == [c.change_id]
        assert planner.records[c.change_id].ancestors == []

    def test_cycle_creating_swap_refused(self):
        planner = make_planner()
        a = labeled(["//x", "//z"])
        b = labeled(["//x", "//y"])
        c = labeled(["//y", "//z"])   # conflicts both a and b
        for i, change in enumerate((a, b, c)):
            planner.submit(change, float(i))
        # b jumps a: a now waits for b, while c still waits for a and b.
        assert planner.reorder(a.change_id, b.change_id)
        # c jumping b would close a -> b -> c -> a: refused, rolled back.
        assert not planner.reorder(b.change_id, c.change_id)
        assert b.change_id in planner.records[c.change_id].ancestors
        assert c.change_id not in planner.records[b.change_id].ancestors

    def test_jumper_commits_first_then_jumped_builds_on_it(self):
        planner = make_planner()
        doomed = labeled(["//x"], ok=False, duration=100.0)
        healthy = labeled(["//x"], duration=10.0)
        planner.submit(doomed, 0.0)
        planner.submit(healthy, 1.0)
        assert planner.reorder(doomed.change_id, healthy.change_id)
        plan_and_resolve(planner, 1.0)
        # healthy's decisive build has no ancestors now.
        assert planner.workers.is_running(BuildKey(healthy.change_id))
        decisions = planner.complete(BuildKey(healthy.change_id), 11.0)
        assert [d.change_id for d in decisions] == [healthy.change_id]
        assert planner.records[healthy.change_id].state is ChangeState.COMMITTED
        # doomed now speculates on the committed jumper.
        plan_and_resolve(planner, 11.0)
        expected = BuildKey(doomed.change_id, frozenset({healthy.change_id}))
        assert planner.workers.is_running(expected)
        planner.complete(expected, 111.0)
        assert planner.records[doomed.change_id].state is ChangeState.REJECTED


class TestReorderingStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReorderingSubmitQueueStrategy(
                OraclePredictor(), doomed_below=0.9, healthy_above=0.3
            )

    def test_healthy_change_jumps_doomed_predecessor(self):
        strategy = ReorderingSubmitQueueStrategy(OraclePredictor())
        planner = make_planner(strategy=strategy)
        doomed = labeled(["//x"], ok=False, duration=120.0)
        healthy = labeled(["//x"], duration=10.0)
        planner.submit(doomed, 0.0)
        planner.submit(healthy, 1.0)
        plan_and_resolve(planner, 1.0)  # applies the proposal, then selects
        assert planner.records[healthy.change_id].ancestors == []
        # The healthy change decides without waiting for the doomed one.
        decisions = planner.complete(BuildKey(healthy.change_id), 11.0)
        assert decisions and decisions[0].committed

    def test_turnaround_improves_for_the_jumper(self):
        def run(strategy):
            planner = make_planner(strategy=strategy)
            doomed = labeled(["//x"], ok=False, duration=120.0)
            healthy = labeled(["//x"], duration=10.0)
            planner.submit(doomed, 0.0)
            planner.submit(healthy, 1.0)
            now = 1.0
            for _ in range(6):
                result = plan_and_resolve(planner, now)
                running = sorted(
                    planner.workers.running_builds(), key=lambda k: k.label()
                )
                if not running:
                    break
                now += 130.0
                for key in running:
                    planner.complete(key, now)
            return planner.records[healthy.change_id].turnaround

        from repro.strategies.submitqueue import SubmitQueueStrategy

        plain = run(SubmitQueueStrategy(OraclePredictor()))
        reordered = run(ReorderingSubmitQueueStrategy(OraclePredictor()))
        assert reordered is not None and plain is not None
        assert reordered <= plain

    def test_max_jumps_caps_starvation(self):
        strategy = ReorderingSubmitQueueStrategy(OraclePredictor(), max_jumps=1)
        planner = make_planner(strategy=strategy)
        doomed = labeled(["//x"], ok=False)
        first = labeled(["//x"])
        second = labeled(["//x"])
        for i, change in enumerate((doomed, first, second)):
            planner.submit(change, float(i))
        plan_and_resolve(planner, 2.0)
        jumped = [
            cid for cid in (first.change_id, second.change_id)
            if doomed.change_id not in planner.records[cid].ancestors
        ]
        assert len(jumped) == 1, "only one change may jump the doomed one"
