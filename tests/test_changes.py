"""Unit tests for repro.changes (change, state, truth), the planner's
records and the conflict graph as the pending queue."""

import pytest

from repro.changes.change import (
    Change,
    Developer,
    GroundTruth,
    next_change_id,
    next_revision_id,
)
from repro.changes.state import ChangeRecord
from repro.changes.truth import (
    build_outcome,
    module_overlap,
    potential_conflict,
    real_conflict,
    stack_outcome,
)
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import IllegalTransitionError, UnknownChangeError
from repro.journal import state_fingerprint
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.planner.workers import WorkerPool
from repro.service.api import SubmitQueueService
from repro.service.core import CoreService, CoreServiceConfig
from repro.sim.simulator import Simulation
from repro.strategies.single_queue import SingleQueueStrategy
from repro.types import ChangeState
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository

DEV = Developer("dev1", skill=0.9)


def labeled(targets, ok=True, rate=0.5, salt=1, modules=None):
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=ok,
            target_names=frozenset(targets),
            module_names=frozenset(modules) if modules is not None else frozenset(),
            conflict_salt=salt,
            real_conflict_rate=rate,
        ),
    )


class TestChangeBasics:
    def test_change_requires_patch_or_truth(self):
        with pytest.raises(ValueError):
            Change("D1", "R1", DEV)

    def test_patch_only_change_ok(self):
        change = Change("D2", "R1", DEV, patch=Patch.adding({"a.py": "x"}))
        assert change.ground_truth is None

    def test_developer_validation(self):
        with pytest.raises(ValueError):
            Developer("d", skill=1.5)
        with pytest.raises(ValueError):
            Developer("d", area_fragility=-0.1)


class TestGroundTruthRelations:
    def test_potential_conflict_via_targets(self):
        a = labeled(["//x:1", "//x:2"])
        b = labeled(["//x:2"])
        c = labeled(["//y:1"])
        assert potential_conflict(a, b)
        assert not potential_conflict(a, c)
        assert not potential_conflict(a, a)

    def test_module_overlap_ignores_hubs(self):
        a = labeled(["//hub:00", "//m:1"], modules=["//m:1"])
        b = labeled(["//hub:00", "//m:2"], modules=["//m:2"])
        assert potential_conflict(a, b)      # share the hub target
        assert not module_overlap(a, b)      # but not a logical part
        assert not real_conflict(a, b)       # so they can never really conflict

    def test_real_conflict_requires_module_overlap(self):
        a = labeled(["//m:1"], rate=1.0)
        b = labeled(["//m:2"], rate=1.0)
        assert not real_conflict(a, b)

    def test_real_conflict_rate_one_always_conflicts(self):
        a = labeled(["//m:1"], rate=1.0, salt=11)
        b = labeled(["//m:1"], rate=1.0, salt=22)
        assert real_conflict(a, b)
        assert real_conflict(b, a)  # symmetric

    def test_real_conflict_rate_zero_never_conflicts(self):
        a = labeled(["//m:1"], rate=0.0)
        b = labeled(["//m:1"], rate=0.0)
        assert not real_conflict(a, b)

    def test_real_conflict_deterministic(self):
        a = labeled(["//m:1"], rate=0.5, salt=123)
        b = labeled(["//m:1"], rate=0.5, salt=456)
        assert real_conflict(a, b) == real_conflict(a, b)

    def test_build_outcome_individual_failure(self):
        broken = labeled(["//m:1"], ok=False)
        assert not build_outcome(broken, [])

    def test_build_outcome_with_conflicting_ancestor(self):
        a = labeled(["//m:1"], rate=1.0, salt=1)
        b = labeled(["//m:1"], rate=1.0, salt=2)
        assert not build_outcome(b, [a])

    def test_stack_outcome_detects_broken_member(self):
        ok = labeled(["//m:1"], rate=0.0)
        broken = labeled(["//m:2"], ok=False)
        assert not stack_outcome([broken, ok])
        assert stack_outcome([ok])

    def test_missing_truth_raises(self):
        patch_only = Change("Dp", "R1", DEV, patch=Patch.adding({"a": "x"}))
        with pytest.raises(ValueError):
            build_outcome(patch_only, [])


def label_planner():
    """A planner over labelled changes; nothing is built."""
    return PlannerEngine(
        SingleQueueStrategy(),
        LabelBuildController(),
        WorkerPool(1),
        conflict_predicate=lambda a, b: False,
    )


def label_service():
    """A core service over labelled changes."""
    return CoreService(
        Repository(),
        SingleQueueStrategy(),
        CoreServiceConfig(workers=2),
        controller=LabelBuildController(),
        conflict_predicate=potential_conflict,
    )


class TestLedger:
    """The planner's ``records`` is the ledger: one :class:`ChangeRecord`
    per submitted change, in submission order."""

    def test_register_and_pending_order(self):
        planner = label_planner()
        a, b = labeled(["//a:a"]), labeled(["//b:b"])
        planner.submit(a, now=1.0)
        planner.submit(b, now=2.0)
        assert list(planner.records) == [a.change_id, b.change_id]
        assert planner.records[a.change_id].enqueued_at == 1.0
        assert planner.records[b.change_id].state is ChangeState.PENDING
        assert planner.view.pending == [a, b]

    def test_duplicate_registration_rejected(self):
        planner = label_planner()
        change = labeled(["//a:a"])
        planner.submit(change, now=0.0)
        with pytest.raises(ValueError, match="already submitted"):
            planner.submit(change, now=1.0)
        assert len(planner.records) == 1 and len(planner.conflict_graph) == 1

    def test_commit_and_turnaround(self):
        record = ChangeRecord(change=labeled(["//a:a"]), enqueued_at=10.0)
        assert record.turnaround is None
        record.mark_committed(at=40.0)
        assert record.turnaround == 30.0
        assert record.state is ChangeState.COMMITTED
        assert record.decision_reason == "all build steps passed"

    def test_double_decision_illegal(self):
        record = ChangeRecord(change=labeled(["//a:a"]))
        record.mark_rejected(at=5.0)
        with pytest.raises(IllegalTransitionError):
            record.mark_committed(at=6.0)

    def test_unknown_change(self):
        with pytest.raises(UnknownChangeError):
            SubmitQueueService(label_service()).status("nope")

    def test_turnarounds_in_decision_order(self):
        simulation = Simulation(
            strategy=SingleQueueStrategy(),
            controller=LabelBuildController(),
            workers=2,
            conflict_predicate=potential_conflict,
        )
        changes = [labeled([f"//t:{i % 2}"], ok=i != 1) for i in range(4)]
        result = simulation.run([(float(i), c) for i, c in enumerate(changes)])
        records = simulation.planner.records
        decided = [records[d.change_id] for d in simulation.planner.decisions()]
        assert len(decided) == len(changes)
        assert result.turnarounds == tuple(
            r.decided_at - r.enqueued_at for r in decided
        )


class TestPendingQueue:
    """The conflict graph's nodes are the pending queue: submission
    order, removal on decision."""

    def test_fifo_order_and_head(self):
        graph = ConflictGraph(lambda a, b: False)
        assert list(graph) == []
        a, b = labeled(["//a:a"]), labeled(["//b:b"])
        graph.add(a)
        graph.add(b)
        assert list(graph) == [a, b]
        assert graph.in_order() == [a.change_id, b.change_id]

    def test_remove_then_head(self):
        graph = ConflictGraph(lambda a, b: False)
        changes = [labeled([f"//t:{i}"]) for i in range(6)]
        for change in changes:
            graph.add(change)
        for change in changes[:4]:
            graph.remove(change.change_id)
        assert len(graph) == 2
        assert next(iter(graph)) is changes[4]

    def test_sequence_survives_removals(self):
        """A change's sequence number is its position in the planner's
        records: deciding the changes before it never moves it."""
        service = label_service()
        a, b, c, d = (labeled([f"//t:{i}"]) for i in range(4))
        for change in (a, b, c):
            service.submit(change)
        service.pump()
        service.submit(d)
        fingerprint = state_fingerprint(service)
        assert fingerprint["pending"] == [d.change_id]
        assert fingerprint["sequences"] == sorted(
            [change.change_id, seq] for seq, change in enumerate((a, b, c, d))
        )
        assert fingerprint["next_seq"] == 4

    def test_order_survives_removals(self):
        graph = ConflictGraph(lambda a, b: True)
        a, b, c = (labeled([f"//t:{i}"]) for i in range(3))
        for change in (a, b, c):
            graph.add(change)
        graph.remove(b.change_id)
        d = labeled(["//t:3"])
        graph.add(d)
        assert [x.change_id for x in graph] == [a.change_id, c.change_id, d.change_id]
        assert graph.ancestors(d.change_id) == [a.change_id, c.change_id]

    def test_duplicate_enqueue_rejected(self):
        graph = ConflictGraph(lambda a, b: False)
        change = labeled(["//a:a"])
        graph.add(change)
        with pytest.raises(ValueError):
            graph.add(change)

    def test_unknown_removal(self):
        with pytest.raises(UnknownChangeError):
            ConflictGraph(lambda a, b: False).remove("nope")
