"""Change lifecycle tracking.

A :class:`ChangeRecord` is SubmitQueue's source of truth for where a
change is in its life: pending since when, which earlier changes it
conflicts with, how many speculations on it succeeded or failed so far
(both are top predictive features, section 7.2), and its terminal state
with timestamps for turnaround accounting.
The planner keeps one per submitted change
(:attr:`repro.planner.planner.PlannerEngine.records`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.changes.change import Change
from repro.errors import IllegalTransitionError
from repro.types import ChangeId, ChangeState


@dataclass
class ChangeRecord:
    """Mutable lifecycle state for one change."""

    change: Change
    state: ChangeState = ChangeState.PENDING
    enqueued_at: float = 0.0
    decided_at: Optional[float] = None
    decision_reason: str = ""
    speculations_succeeded: int = 0
    speculations_failed: int = 0
    builds_scheduled: int = 0
    builds_aborted: int = 0
    #: The conflicting changes this one speculates on, in submission
    #: order: the conflict graph's older neighbours at submit, edited in
    #: place by an applied reorder, kept after the change is decided.
    ancestors: List[ChangeId] = field(default_factory=list)

    @property
    def change_id(self) -> ChangeId:
        return self.change.change_id

    @property
    def turnaround(self) -> Optional[float]:
        """Decision time minus enqueue time, or ``None`` while pending."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.enqueued_at

    def _transition(self, to: ChangeState, at: float, reason: str) -> None:
        if self.state is not ChangeState.PENDING:
            raise IllegalTransitionError(self.state, to)
        if self.decided_at is not None:
            raise IllegalTransitionError(self.state, to)
        self.state = to
        self.decided_at = at
        self.decision_reason = reason

    def mark_committed(self, at: float, reason: str = "all build steps passed") -> None:
        self._transition(ChangeState.COMMITTED, at, reason)

    def mark_rejected(self, at: float, reason: str = "a build step failed") -> None:
        self._transition(ChangeState.REJECTED, at, reason)
