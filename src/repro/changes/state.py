"""Change lifecycle tracking.

The ledger is SubmitQueue's source of truth for where each change is in
its life: pending since when, how many speculations on it succeeded or
failed so far (both are top predictive features, section 7.2), and its
terminal state with timestamps for turnaround accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.changes.change import Change
from repro.errors import IllegalTransitionError, UnknownChangeError
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


class ChangeLedger:
    """Registry of every change SubmitQueue has seen, by id."""

    def __init__(self) -> None:
        self._records: Dict[ChangeId, ChangeRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, change_id: ChangeId) -> bool:
        return change_id in self._records

    def __iter__(self) -> Iterator[ChangeRecord]:
        return iter(self._records.values())

    def register(self, change: Change, at: float) -> ChangeRecord:
        """Register a newly submitted change as pending."""
        if change.change_id in self._records:
            raise ValueError(f"change {change.change_id} already registered")
        record = ChangeRecord(change=change, enqueued_at=at)
        self._records[change.change_id] = record
        return record

    def record(self, change_id: ChangeId) -> ChangeRecord:
        try:
            return self._records[change_id]
        except KeyError:
            raise UnknownChangeError(change_id) from None

    def state_of(self, change_id: ChangeId) -> ChangeState:
        return self.record(change_id).state

    def pending(self) -> List[ChangeRecord]:
        """Pending records in enqueue order (ties broken by change id)."""
        rows = [r for r in self._records.values() if r.state is ChangeState.PENDING]
        rows.sort(key=lambda r: (r.enqueued_at, r.change_id))
        return rows

    def decided(self) -> List[ChangeRecord]:
        """All terminal records, ordered by decision time."""
        rows = [r for r in self._records.values() if r.state.is_terminal]
        rows.sort(key=lambda r: (r.decided_at, r.change_id))
        return rows

    def committed_ids(self) -> List[ChangeId]:
        return [
            r.change_id for r in self.decided() if r.state is ChangeState.COMMITTED
        ]

    def turnarounds(self) -> List[float]:
        """Turnaround of every decided change, in decision order."""
        return [r.turnaround for r in self.decided() if r.turnaround is not None]
