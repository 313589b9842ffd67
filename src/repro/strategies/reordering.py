"""Change reordering (paper section 10, future work).

"The current version of SubmitQueue respects the order in which changes
are submitted to the system.  Therefore, small changes that are submitted
... after a large change with long turnaround time ... need to wait for
the large change to commit/abort. ... we plan to reorder non-independent
changes in order to improve throughput, and provide a better balance
between starvation and fairness."

This strategy extends SubmitQueue with a conservative reorder policy: a
pending change may jump a conflicting predecessor when the predictor is
confident the predecessor is doomed (``p_success <= doomed_below``) and
the jumper healthy (``p_success >= healthy_above``) — the case where
waiting is pure loss, since a rejected predecessor never constrains the
jumper anyway.  Fairness is preserved by capping how many changes may
jump any single predecessor (``max_jumps``), bounding starvation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.planner.planner import PlannerView
from repro.predictor.predictors import Predictor
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import ChangeId


class ReorderingSubmitQueueStrategy(SubmitQueueStrategy):
    """SubmitQueue + doomed-predecessor jumping."""

    name = "SubmitQueue+reorder"

    def __init__(
        self,
        predictor: Predictor,
        doomed_below: float = 0.3,
        healthy_above: float = 0.85,
        max_jumps: int = 3,
    ) -> None:
        super().__init__(predictor)
        if not 0.0 <= doomed_below <= healthy_above <= 1.0:
            raise ValueError("need 0 <= doomed_below <= healthy_above <= 1")
        self.doomed_below = doomed_below
        self.healthy_above = healthy_above
        self.max_jumps = max_jumps
        self._jumps_over: Dict[ChangeId, int] = defaultdict(int)

    def propose_reorders(self, view: PlannerView) -> List[Tuple[ChangeId, ChangeId]]:
        proposals: List[Tuple[ChangeId, ChangeId]] = []
        pending = {change.change_id: change for change in view.pending}
        for change in view.pending:
            record = view.records.get(change.change_id)
            if self.predictor.p_success(change, record) < self.healthy_above:
                continue
            for ancestor_id in list(view.records[change.change_id].ancestors):
                ancestor = pending.get(ancestor_id)
                if ancestor is None:
                    continue  # already decided; nothing to jump
                if self._jumps_over[ancestor_id] >= self.max_jumps:
                    continue  # fairness: the doomed change keeps its turn
                ancestor_record = view.records.get(ancestor_id)
                if (
                    self.predictor.p_success(ancestor, ancestor_record)
                    <= self.doomed_below
                ):
                    proposals.append((ancestor_id, change.change_id))
                    self._jumps_over[ancestor_id] += 1
        return proposals
