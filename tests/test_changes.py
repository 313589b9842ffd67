"""Unit tests for repro.changes (change, state, queue, truth)."""

import pytest

from repro.changes.change import (
    Change,
    Developer,
    GroundTruth,
    next_change_id,
    next_revision_id,
)
from repro.changes.queue import PendingQueue
from repro.changes.state import ChangeLedger
from repro.changes.truth import (
    build_outcome,
    module_overlap,
    potential_conflict,
    real_conflict,
    stack_outcome,
)
from repro.errors import IllegalTransitionError, UnknownChangeError
from repro.types import ChangeState
from repro.vcs.patch import Patch

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


class TestLedger:
    def test_register_and_pending_order(self):
        ledger = ChangeLedger()
        a, b = labeled(["//a:a"]), labeled(["//b:b"])
        ledger.register(a, at=1.0)
        ledger.register(b, at=2.0)
        assert [r.change_id for r in ledger.pending()] == [a.change_id, b.change_id]

    def test_duplicate_registration_rejected(self):
        ledger = ChangeLedger()
        change = labeled(["//a:a"])
        ledger.register(change, at=0.0)
        with pytest.raises(ValueError):
            ledger.register(change, at=1.0)

    def test_commit_and_turnaround(self):
        ledger = ChangeLedger()
        change = labeled(["//a:a"])
        record = ledger.register(change, at=10.0)
        record.mark_committed(at=40.0)
        assert record.turnaround == 30.0
        assert ledger.state_of(change.change_id) is ChangeState.COMMITTED
        assert ledger.committed_ids() == [change.change_id]

    def test_double_decision_illegal(self):
        ledger = ChangeLedger()
        record = ledger.register(labeled(["//a:a"]), at=0.0)
        record.mark_rejected(at=5.0)
        with pytest.raises(IllegalTransitionError):
            record.mark_committed(at=6.0)

    def test_unknown_change(self):
        with pytest.raises(UnknownChangeError):
            ChangeLedger().record("nope")

    def test_turnarounds_in_decision_order(self):
        ledger = ChangeLedger()
        first = ledger.register(labeled(["//a:a"]), at=0.0)
        second = ledger.register(labeled(["//b:b"]), at=0.0)
        second.mark_committed(at=5.0)
        first.mark_rejected(at=9.0)
        assert ledger.turnarounds() == [5.0, 9.0]


class TestPendingQueue:
    def test_fifo_order_and_head(self):
        queue = PendingQueue()
        a, b = labeled(["//a:a"]), labeled(["//b:b"])
        queue.enqueue(a)
        queue.enqueue(b)
        assert queue.head() is a
        assert [c.change_id for c in queue] == [a.change_id, b.change_id]

    def test_remove_and_lazy_compaction(self):
        queue = PendingQueue()
        changes = [labeled([f"//t:{i}"]) for i in range(6)]
        for change in changes:
            queue.enqueue(change)
        for change in changes[:4]:
            queue.remove(change.change_id)
        assert len(queue) == 2
        assert queue.head() is changes[4]

    def test_sequence_survives_removals(self):
        queue = PendingQueue()
        a, b, c = (labeled([f"//t:{i}"]) for i in range(3))
        for change in (a, b, c):
            queue.enqueue(change)
        queue.remove(b.change_id)
        assert queue.sequence_of(c.change_id) == 2
        assert [x.change_id for x in queue] == [a.change_id, c.change_id]

    def test_duplicate_enqueue_rejected(self):
        queue = PendingQueue()
        change = labeled(["//a:a"])
        queue.enqueue(change)
        with pytest.raises(ValueError):
            queue.enqueue(change)

    def test_unknown_removal(self):
        with pytest.raises(UnknownChangeError):
            PendingQueue().remove("nope")
