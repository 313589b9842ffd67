"""SubmitQueue: probabilistic speculation with conflict trimming.

The paper's system: every epoch, rank all candidate builds by value
(Equations 1–5 over predictor probabilities) and run the top ``budget``.
The conflict graph has already trimmed each change's speculation space to
its conflicting ancestors, so independent changes cost one build each and
commit in parallel.
"""

from __future__ import annotations

from typing import List

from repro.changes.change import Change
from repro.planner.planner import Decision, PlannerView
from repro.predictor.predictors import LearnedPredictor, Predictor
from repro.speculation.engine import SpeculationEngine
from repro.strategies.base import Strategy
from repro.types import BuildKey, ChangeId


class SubmitQueueStrategy(Strategy):
    """Value-ordered speculative selection driven by a predictor."""

    name = "SubmitQueue"

    def __init__(self, predictor: Predictor) -> None:
        self.predictor = predictor
        self.engine = SpeculationEngine(predictor)

    def bind_recorder(self, recorder) -> None:
        """Forward the planner-injected recorder to the speculation engine."""
        self.engine.bind_recorder(recorder)

    @property
    def stats(self):
        """The engine's incremental-effectiveness counters."""
        return self.engine.stats

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        scored = self.engine.select_builds(
            pending=view.pending,
            records=view.records,
            decided=view.decided,
            budget=budget,
            changes_by_id=view.changes_by_id,
        )
        return [build.key for build in scored]

    # The planner's pushes keep the engine's table current.

    def on_submit(self, change: Change, view: PlannerView) -> None:
        self.engine.on_submit(view.records[change.change_id])

    def on_reorder(self, ahead_id: ChangeId, behind_id: ChangeId,
                   view: PlannerView) -> None:
        self.engine.on_reorder(ahead_id, behind_id)

    def on_build_finished(self, key: BuildKey, success: bool,
                          view: PlannerView) -> None:
        self.engine.on_build_finished(key.change_id)

    def on_decision(self, change: Change, decision: Decision,
                    view: PlannerView) -> None:
        self.engine.on_decision(change.change_id)
        # Keep the learned predictor's developer history current; static
        # and oracle predictors have no feedback surface.
        if isinstance(self.predictor, LearnedPredictor):
            self.predictor.observe_outcome(change, decision.committed)
