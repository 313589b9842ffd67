"""The strategy interface.

A strategy owns build selection; the planner owns everything else.  The
optional hooks let strategies maintain internal state (batching) or feed
online learning (SubmitQueue's developer-history features).
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.changes.change import Change
from repro.planner.planner import Decision, PlannerView
from repro.types import BuildKey


class Strategy(abc.ABC):
    """Selects the builds worth running, in priority order."""

    #: Human-readable name used in benchmark tables.
    name: str = "strategy"

    @abc.abstractmethod
    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        """The top-``budget`` builds to have running right now.

        Order encodes priority: the planner starts from the front and
        aborts running builds that are absent from the list.  Must be a
        pure function of ``(view, budget)``: the planner answers an epoch
        whose input fingerprint is unchanged without calling it at all.
        """

    # -- optional hooks (the planner duck-types these) ----------------------

    def on_submit(self, change: Change, view: PlannerView) -> None:
        """Called after a change is enqueued."""

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
