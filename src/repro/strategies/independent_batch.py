"""Batching independent changes (paper section 10, future work).

"SubmitQueue performs all build steps of independent changes separately.
A better approach is to batch independent changes expected to succeed
together before running their build steps.  While this approach can lead
to better hardware utilization and lower cost, false prediction can
result in higher turnaround time."

This strategy implements that refinement on top of SubmitQueue selection:
pending changes that (a) conflict with nothing pending, (b) have no
undecided predecessors in their batch, and (c) the predictor deems likely
to succeed (``p_success >= CONFIDENCE``) are grouped into combined builds
of up to ``BATCH_SIZE``.  Everything else falls back to ordinary
SubmitQueue speculation.  A failed combined build simply dissolves the
group — members revert to individual decisive builds, paying the
turnaround penalty the paper predicts for mispredictions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.changes.change import Change
from repro.planner.planner import Decision, PlannerView
from repro.predictor.predictors import Predictor
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey, ChangeId


class IndependentBatchStrategy(SubmitQueueStrategy):
    """SubmitQueue + combined builds for likely-green independent changes."""

    name = "SubmitQueue+batch"

    #: Changes per combined build, at most.
    BATCH_SIZE = 4
    #: ``p_success`` a change needs to ride in a combined build.
    CONFIDENCE = 0.9

    def __init__(self, predictor: Predictor) -> None:
        super().__init__(predictor)
        #: Change id -> the batch (ordered ids) it currently rides in.
        self._batch_of: Dict[ChangeId, List[ChangeId]] = {}
        #: Batches whose combined build failed: members go solo.
        self._dissolved: Set[ChangeId] = set()

    def _batchable(self, change: Change, view: PlannerView) -> bool:
        if change.change_id in self._dissolved:
            return False
        if view.conflict_degree(change.change_id) != 0:
            return False
        record = view.records.get(change.change_id)
        return self.predictor.p_success(change, record) >= self.CONFIDENCE

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        # Re-form batches from scratch each epoch from batchable changes
        # whose group membership is stable (ids keep batches deterministic).
        batchable = [
            change for change in view.pending if self._batchable(change, view)
        ]
        self._batch_of = {}
        selected: List[BuildKey] = []
        for start in range(0, len(batchable), self.BATCH_SIZE):
            group = batchable[start : start + self.BATCH_SIZE]
            if len(group) < 2:
                break  # singleton tail: leave it to normal speculation
            ids = [c.change_id for c in group]
            for member in ids:
                self._batch_of[member] = ids
            selected.append(BuildKey(ids[-1], frozenset(ids[:-1])))
            if len(selected) >= budget:
                return selected

        batched_ids = set(self._batch_of)
        remaining_budget = budget - len(selected)
        if remaining_budget > 0:
            for key in super().select(view, remaining_budget + len(batched_ids)):
                if key.change_id in batched_ids:
                    continue  # its fate rides on the combined build
                selected.append(key)
                if len(selected) >= budget:
                    break
        return selected

    def interpret(
        self, key: BuildKey, success: bool, view: PlannerView, now: float
    ) -> Optional[List[Decision]]:
        group = self._batch_of.get(key.change_id)
        if group is None or group[-1] != key.change_id:
            return None
        if frozenset(group[:-1]) != key.assumed:
            return None  # stale build of a since-reshuffled batch
        for member in group:
            self._batch_of.pop(member, None)
        if success:
            return [
                Decision(member, True, now,
                         reason=f"independent batch of {len(group)} passed")
                for member in group
            ]
        # Misprediction: dissolve, members fall back to solo builds.
        self._dissolved.update(group)
        return []

    def on_decision(self, change: Change, decision: Decision,
                    view: PlannerView) -> None:
        super().on_decision(change, decision, view)
        self._dissolved.discard(change.change_id)
        self._batch_of.pop(change.change_id, None)
