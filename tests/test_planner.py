"""Unit tests for the planner engine."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.single_queue import SingleQueueStrategy
from repro.types import BuildKey, ChangeState

from .conftest import plan_and_resolve, start_builds

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


def make_planner(workers=4, strategy=None):
    return PlannerEngine(
        strategy=strategy or OracleStrategy(),
        controller=LabelBuildController(),
        workers=workers,
        conflict_predicate=potential_conflict,
    )


class TestSubmission:
    def test_submit_registers_and_freezes_ancestors(self):
        planner = make_planner()
        a = labeled(["//x"])
        b = labeled(["//x"])
        c = labeled(["//y"])
        planner.submit(a, 0.0)
        planner.submit(b, 1.0)
        planner.submit(c, 2.0)
        assert planner.records[a.change_id].ancestors == []
        assert planner.records[b.change_id].ancestors == [a.change_id]
        assert planner.records[c.change_id].ancestors == []
        assert planner.pending_count() == 3

    def test_plan_starts_builds_within_capacity(self):
        planner = make_planner(workers=2)
        for _ in range(5):
            planner.submit(labeled([f"//t{_}"]), 0.0)
        result = plan_and_resolve(planner, 0.0)
        assert len(result.started) == 2
        assert planner.free == 0


class TestDecisions:
    def test_single_change_commits(self):
        planner = make_planner()
        change = labeled()
        planner.submit(change, 0.0)
        (key,) = plan_and_resolve(planner, 0.0).started
        decisions = planner.complete(key, 30.0)
        assert [d.change_id for d in decisions] == [change.change_id]
        assert decisions[0].committed
        record = planner.records[change.change_id]
        assert record.state is ChangeState.COMMITTED
        assert record.turnaround == 30.0
        assert planner.pending_count() == 0

    def test_broken_change_rejected(self):
        planner = make_planner()
        change = labeled(ok=False)
        planner.submit(change, 0.0)
        key = plan_and_resolve(planner, 0.0).started[0]
        decisions = planner.complete(key, 30.0)
        assert not decisions[0].committed
        assert planner.records[change.change_id].state is ChangeState.REJECTED

    def test_conflicting_pair_decides_in_order(self):
        planner = make_planner()
        a = labeled(["//x"], rate=1.0, salt=1)
        b = labeled(["//x"], rate=1.0, salt=2)
        planner.submit(a, 0.0)
        planner.submit(b, 0.0)
        result = plan_and_resolve(planner, 0.0)
        keys = set(result.started)
        # Oracle schedules a's decisive build and b's true-context build.
        assert BuildKey(a.change_id) in keys
        assert BuildKey(b.change_id, frozenset({a.change_id})) in keys
        # Complete b's build first: b must still wait for a.
        decisions = planner.complete(
            BuildKey(b.change_id, frozenset({a.change_id})), 20.0
        )
        assert decisions == []
        decisions = planner.complete(BuildKey(a.change_id), 30.0)
        ids = {d.change_id: d for d in decisions}
        assert ids[a.change_id].committed
        # b really conflicts with committed a -> rejected, and it cascades
        # in the same call because its build finished earlier.
        assert not ids[b.change_id].committed

    def test_speculation_counters_update(self):
        planner = make_planner()
        a = labeled(["//x"])
        planner.submit(a, 0.0)
        key = plan_and_resolve(planner, 0.0).started[0]
        planner.complete(key, 10.0)
        record = planner.records[a.change_id]
        assert record.speculations_succeeded == 1
        assert record.builds_scheduled == 1

    def test_stale_completion_ignored(self):
        planner = make_planner()
        change = labeled()
        planner.submit(change, 0.0)
        key = plan_and_resolve(planner, 0.0).started[0]
        planner.complete(key, 10.0)
        assert planner.complete(key, 20.0) == []  # double completion


class TestAbort:
    def test_builds_outside_selection_aborted(self):
        planner = make_planner(workers=4)
        a = labeled(["//x"], ok=False)   # will be rejected
        b = labeled(["//x"], rate=0.0)
        planner.submit(a, 0.0)
        planner.submit(b, 0.0)
        plan_and_resolve(planner, 0.0)
        # Oracle schedules (a) and (b|{}) because a is known to fail.
        keys = set(planner.running)
        assert BuildKey(b.change_id, frozenset()) in keys
        # Completing a's build rejects it; b's build stays selected.
        planner.complete(BuildKey(a.change_id), 30.0)
        result = plan_and_resolve(planner, 30.0)
        assert BuildKey(b.change_id, frozenset()) not in result.aborted

    def test_abort_counts(self):
        planner = make_planner(workers=2)

        class FickleStrategy(SingleQueueStrategy):
            # Selects nothing on even calls to force aborts.
            calls = 0

            def select(self, view, budget):
                type(self).calls += 1
                if type(self).calls % 2 == 0:
                    return []
                return super().select(view, budget)

        planner = make_planner(workers=2, strategy=FickleStrategy())
        planner.submit(labeled(), 0.0)
        first = plan_and_resolve(planner, 0.0)   # selects, starts 1
        assert len(first.started) == 1
        second = plan_and_resolve(planner, 1.0)  # selects nothing -> aborts (stall guard restarts)
        assert len(second.aborted) == 1
        assert planner.stats.builds_aborted == 1

    def test_aborts_follow_dispatch_order(self):
        """Workers are interchangeable, so nothing reorders a batch: an
        epoch aborts its builds in the order they were dispatched, even
        when the later one is of a change that already finished a build."""

        class ScriptedStrategy(SingleQueueStrategy):
            selection = []

            def select(self, view, budget):
                return list(self.selection)

        strategy = ScriptedStrategy()
        planner = make_planner(workers=2, strategy=strategy)
        a, b = labeled(["//x"]), labeled(["//y"])
        planner.submit(a, 0.0)
        planner.submit(b, 0.0)
        # A build of b stacked on a (not its ancestor) finishes without
        # deciding b, since a is still pending.
        stacked = BuildKey(b.change_id, frozenset({a.change_id}))
        strategy.selection = [stacked]
        plan_and_resolve(planner, 0.0)
        finished_at = planner.builds[stacked].execution.duration
        assert planner.complete(stacked, finished_at) == []

        first, second = BuildKey(a.change_id), BuildKey(b.change_id)
        strategy.selection = [first, second]
        started = plan_and_resolve(planner, finished_at)
        assert started.started == [first, second]
        strategy.selection = []
        aborting = plan_and_resolve(planner, finished_at + 1.0)
        assert aborting.aborted == [first, second]


class TestStallGuard:
    def test_head_decisive_build_forced(self):
        class NullStrategy(SingleQueueStrategy):
            def select(self, view, budget):
                return []

        planner = make_planner(workers=2, strategy=NullStrategy())
        change = labeled()
        planner.submit(change, 0.0)
        result = plan_and_resolve(planner, 0.0)
        assert len(result.started) == 1
        assert result.started[0] == BuildKey(change.change_id)

    def test_oldest_ready_change_forced_after_a_reorder(self):
        """After ``jumper`` jumps ``jumped`` the queue head waits on a
        change behind it; the guard forces the oldest change that is ready
        instead of the head, so an optimistic chain whose builds are all
        finished and unusable still drains."""
        planner = make_planner(workers=2, strategy=OptimisticStrategy())
        jumped, jumper = labeled(["//x"]), labeled(["//x"])
        planner.submit(jumped, 0.0)
        planner.submit(jumper, 0.0)
        assert planner.reorder(jumped.change_id, jumper.change_id)
        now = 0.0
        for _ in range(4):
            if not planner.pending_count():
                break
            started = plan_and_resolve(planner, now).started
            assert started, "stalled with every worker idle"
            now += 30.0
            for key in started:
                planner.complete(key, now)
        assert [d.change_id for d in planner.decisions()] == [
            jumper.change_id,
            jumped.change_id,
        ]

    def test_stall_step_decides_what_a_reorder_left_decidable(self):
        """Jumping back after both builds finished makes ``first`` ready
        again with its decisive build already done: no build is left to
        force and no completion will come, so the service's stall step
        (``decide_ready``) decides it."""
        planner = make_planner(workers=2, strategy=OptimisticStrategy())
        first, second = labeled(["//x"], ok=False), labeled(["//x"], ok=False)
        planner.submit(first, 0.0)
        planner.submit(second, 0.0)
        started = plan_and_resolve(planner, 0.0).started
        assert planner.reorder(first.change_id, second.change_id)
        for key in started:
            assert planner.complete(key, 30.0) == []
        assert planner.reorder(second.change_id, first.change_id)
        assert plan_and_resolve(planner, 31.0).started == []
        decisions = planner.decide_ready(31.0)
        assert [(d.change_id, d.committed) for d in decisions] == [
            (first.change_id, False)
        ]
        (key,) = plan_and_resolve(planner, 32.0).started
        assert key == BuildKey(second.change_id)
        planner.complete(key, 62.0)
        assert planner.pending_count() == 0


class TestEquivalentBuildRule:
    def test_superset_stack_of_committed_extras_decides(self):
        planner = make_planner()
        # a and b do not conflict; b's build stacked a anyway (Zuul-style).
        a = labeled(["//x"])
        b = labeled(["//y"])
        planner.submit(a, 0.0)
        planner.submit(b, 0.0)
        # Manually start b's all-ahead build plus a's decisive build.
        start_builds(
            planner,
            [
                BuildKey(a.change_id),
                BuildKey(b.change_id, frozenset({a.change_id})),
            ],
            0.0,
        )
        planner.complete(BuildKey(b.change_id, frozenset({a.change_id})), 25.0)
        # b cannot decide yet: a (the stacked extra) is still pending.
        assert planner.records[b.change_id].state is ChangeState.PENDING
        decisions = planner.complete(BuildKey(a.change_id), 30.0)
        ids = {d.change_id for d in decisions}
        # a commits; b is decided by the equivalent stacked build.
        assert ids == {a.change_id, b.change_id}
        assert planner.records[b.change_id].state is ChangeState.COMMITTED


class TestCommittedExtraTrap:
    """A ready change can become decidable through a change it does not
    wait on: its finished build stacked a pending non-ancestor, and the
    build decides it the moment that extra commits.  The decision step
    must re-check every ready change, not only what a decision releases."""

    @pytest.mark.parametrize("extra_behind", [False, True])
    def test_decided_exactly_when_the_extra_commits(self, extra_behind):
        planner = make_planner()
        subject = labeled(["//y"])
        extra = labeled(["//x"])
        bystander = labeled(["//z"])
        # The extra sits ahead of the subject in the queue, or behind it.
        order = [subject, extra] if extra_behind else [extra, subject]
        for change in order + [bystander]:
            planner.submit(change, 0.0)
        assert planner.records[subject.change_id].ancestors == []
        stacked = BuildKey(subject.change_id, frozenset({extra.change_id}))
        start_builds(
            planner,
            [stacked, BuildKey(bystander.change_id), BuildKey(extra.change_id)],
            0.0,
        )
        assert planner.complete(stacked, 10.0) == []
        # Another change's verdict does not settle the subject either.
        decisions = planner.complete(BuildKey(bystander.change_id), 20.0)
        assert [d.change_id for d in decisions] == [bystander.change_id]
        assert planner.records[subject.change_id].state is ChangeState.PENDING
        decisions = planner.complete(BuildKey(extra.change_id), 30.0)
        assert [(d.change_id, d.committed, d.at) for d in decisions] == [
            (extra.change_id, True, 30.0),
            (subject.change_id, True, 30.0),
        ]
        assert planner.pending_count() == 0


class TestDecisionPasses:
    """The decision step keeps the full queue scan's pass order."""

    def test_release_at_an_earlier_position_waits_for_the_next_pass(self):
        planner = make_planner()
        jumped = labeled(["//x"])
        jumper = labeled(["//x"])
        behind = labeled(["//q"])
        for change in (jumped, jumper, behind):
            planner.submit(change, 0.0)
        # ``jumper`` jumps ``jumped``: the earlier change now waits on the
        # later one, so the later one's verdict releases it.
        assert planner.reorder(jumped.change_id, jumper.change_id)
        assume_jumper = frozenset({jumper.change_id})
        keys = [
            BuildKey(jumped.change_id, assume_jumper),
            BuildKey(behind.change_id, assume_jumper),
            BuildKey(jumper.change_id),
        ]
        start_builds(planner, keys, 0.0)
        assert planner.complete(keys[0], 10.0) == []
        assert planner.complete(keys[1], 10.0) == []
        decisions = planner.complete(keys[2], 20.0)
        # One pass decides ``jumper`` and then ``behind`` (its build stacked
        # the now-committed jumper); ``jumped`` sits ahead of the change
        # that released it, so it is decided by the next pass.
        assert [d.change_id for d in decisions] == [
            jumper.change_id,
            behind.change_id,
            jumped.change_id,
        ]
