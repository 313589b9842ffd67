"""Batching with bisection, à la Chromium's Commit Queue (section 2.2).

Pending changes are grouped into batches of ``batch_size`` in arrival
order.  One batch builds at a time; if the combined build passes, the
whole batch commits (shippable *batches*, not shippable commits — the
paper's critique).  If it fails, the batch splits in half and both halves
re-queue; a failing singleton is rejected.  Build keys stack the batch
members onto the committed ancestors, so outcomes come from the same
controller as every other strategy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set

from repro.planner.planner import Decision, PlannerView
from repro.strategies.base import Strategy
from repro.types import BuildKey, ChangeId


class BatchStrategy(Strategy):
    """One in-flight batch, bisected on failure."""

    name = "Batch"

    def __init__(self, batch_size: int = 8) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        #: Sub-batches awaiting their turn (produced by bisection).
        self._pending_groups: Deque[List[ChangeId]] = deque()
        self._active_group: Optional[List[ChangeId]] = None
        self._active_key: Optional[BuildKey] = None
        #: Ids already swept into some group (until decided).
        self._grouped: Set[ChangeId] = set()

    # -- selection ----------------------------------------------------------

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        if budget <= 0:
            return []
        self._refresh_active(view)
        if self._active_key is None:
            return []
        return [self._active_key]

    def _refresh_active(self, view: PlannerView) -> None:
        decided = view.decided
        # Drop decided members from bookkeeping.
        self._grouped = {cid for cid in self._grouped if cid not in decided}
        if self._active_group is not None:
            self._active_group = [
                cid for cid in self._active_group if cid not in decided
            ]
            if not self._active_group:
                self._active_group = None
                self._active_key = None
        if self._active_group is None:
            self._active_group = self._next_group(view)
            self._active_key = (
                self._key_for(self._active_group, view)
                if self._active_group is not None
                else None
            )

    def _next_group(self, view: PlannerView) -> Optional[List[ChangeId]]:
        while self._pending_groups:
            group = [
                cid for cid in self._pending_groups.popleft()
                if cid not in view.decided
            ]
            if group:
                return group
        fresh = [
            change.change_id
            for change in view.pending
            if change.change_id not in self._grouped
        ][: self.batch_size]
        if not fresh:
            return None
        self._grouped.update(fresh)
        return fresh

    def _key_for(self, group: List[ChangeId], view: PlannerView) -> BuildKey:
        last = group[-1]
        assumed: Set[ChangeId] = set(group[:-1])
        # Committed predecessors of any member are already on HEAD; fold
        # them in so the stacked snapshot matches what a rebase would see.
        for member in group:
            for ancestor_id in view.records[member].ancestors:
                if view.decided.get(ancestor_id, False):
                    assumed.add(ancestor_id)
        assumed.discard(last)
        return BuildKey(last, frozenset(assumed))

    # -- interpretation -------------------------------------------------------

    def interpret(
        self, key: BuildKey, success: bool, view: PlannerView, now: float
    ) -> Optional[List[Decision]]:
        if key != self._active_key or self._active_group is None:
            return None
        group = self._active_group
        self._active_group = None
        self._active_key = None
        if success:
            return [
                Decision(cid, True, now, reason=f"batch of {len(group)} passed")
                for cid in group
            ]
        if len(group) == 1:
            self._grouped.discard(group[0])
            return [Decision(group[0], False, now, reason="singleton batch failed")]
        middle = len(group) // 2
        self._pending_groups.appendleft(group[middle:])
        self._pending_groups.appendleft(group[:middle])
        return []
