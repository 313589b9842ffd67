"""The strategy interface.

A strategy owns build selection; the planner owns everything else.  The
hooks — no-ops here, called unconditionally by the planner and the
service — let strategies maintain internal state (batching), reorder the
queue, or feed online learning (SubmitQueue's developer-history features).

The planner tells a strategy everything that moves the selection inputs,
as it happens: a submit (:meth:`Strategy.on_submit`), a decision
(:meth:`Strategy.on_decision`), an applied reorder
(:meth:`Strategy.on_reorder`) and a finished build that moved a pending
change's speculation counters (:meth:`Strategy.on_build_finished`).  A
strategy that carries state between rounds keeps it current from these
calls; it never has to diff the view.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.changes.change import Change
from repro.obs.recorder import Recorder
from repro.planner.planner import Decision, PlannerView
from repro.types import BuildKey, ChangeId


class Strategy(abc.ABC):
    """Selects the builds worth running, in priority order."""

    #: Human-readable name used in benchmark tables.
    name: str = "strategy"

    @abc.abstractmethod
    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        """The top-``budget`` builds to have running right now.

        Order encodes priority: the planner starts from the front and
        aborts running builds that are absent from the list.  Called once
        per event (submission, build completion, stall); state carried
        between calls may save work but must not change the answer.
        """

    # -- hooks: no-op defaults, overridden where a strategy needs them ------

    def bind_recorder(self, recorder: Recorder) -> None:
        """Receive the planner's recorder (called once, at construction)."""

    def on_submit(self, change: Change, view: PlannerView) -> None:
        """Called after a change is enqueued."""

    def propose_reorders(
        self, view: PlannerView
    ) -> Sequence[Tuple[ChangeId, ChangeId]]:
        """``(ahead, behind)`` swaps to try before this epoch's selection."""
        return ()

    def on_reorder(self, ahead_id: ChangeId, behind_id: ChangeId,
                   view: PlannerView) -> None:
        """Called after an applied reorder: ``ahead_id`` left
        ``behind_id``'s ancestor list and ``behind_id`` joined
        ``ahead_id``'s."""

    def on_build_finished(self, key: BuildKey, success: bool,
                          view: PlannerView) -> None:
        """Called after a finished build bumped its pending change's
        speculation counters, before the build is interpreted."""

    def on_decision(self, change: Change, decision: Decision,
                    view: PlannerView) -> None:
        """Called after a change commits or rejects."""

    def interpret(
        self, key: BuildKey, success: bool, view: PlannerView, now: float
    ) -> Optional[List[Decision]]:
        """Optionally translate a build completion into decisions.

        Return ``None`` to use the planner's default decisive-build rule
        (every strategy except batching does).
        """
        return None

    def drain_journal_events(self) -> List[Dict[str, object]]:
        """Batch resolutions buffered since the last drain, for the journal."""
        return []
