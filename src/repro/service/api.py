"""The API service: the developer-facing surface (paper Figure 3 step 5).

Stateless facade over a :class:`~repro.service.core.CoreService`: land a
change, poll its status, list the queue.  This is the programmatic twin of
the production Dropwizard REST service + web UI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.changes.change import Change
from repro.errors import UnknownChangeError
from repro.service.core import CoreService
from repro.types import ChangeId, ChangeState


@dataclass(frozen=True)
class ChangeStatus:
    """Point-in-time view of one change's progress."""

    change_id: ChangeId
    state: ChangeState
    reason: str
    enqueued_at: float
    decided_at: Optional[float]
    turnaround: Optional[float]
    speculations_succeeded: int
    speculations_failed: int
    builds_scheduled: int
    builds_aborted: int

    @property
    def is_landed(self) -> bool:
        return self.state is ChangeState.COMMITTED


class SubmitQueueService:
    """Land changes and query their state."""

    def __init__(self, core: CoreService) -> None:
        self._core = core

    def land_change(self, change: Change, wait: bool = False) -> ChangeStatus:
        """Submit a change; with ``wait`` drive the queue to a decision."""
        self._core.submit(change)
        if wait:
            self._core.pump()
        return self.status(change.change_id)

    def process(self) -> int:
        """Drive the queue until idle; returns the number of decisions."""
        return len(self._core.pump())

    def status(self, change_id: ChangeId) -> ChangeStatus:
        """Current status of a change; raises for unknown ids."""
        if change_id not in self._core.planner.records:
            raise UnknownChangeError(change_id)
        record = self._core.planner.records[change_id]
        return ChangeStatus(
            change_id=change_id,
            state=record.state,
            reason=record.decision_reason,
            enqueued_at=record.enqueued_at,
            decided_at=record.decided_at,
            turnaround=record.turnaround,
            speculations_succeeded=record.speculations_succeeded,
            speculations_failed=record.speculations_failed,
            builds_scheduled=record.builds_scheduled,
            builds_aborted=record.builds_aborted,
        )

    def queue_depth(self) -> int:
        """Number of changes still pending."""
        return self._core.planner.pending_count()

    def pending_ids(self) -> List[ChangeId]:
        """Pending change ids in queue order."""
        return self._core.planner.conflict_graph.in_order()

    def mainline_is_green(self) -> bool:
        """True when every mainline commit point is green."""
        return self._core.repo.is_green()
