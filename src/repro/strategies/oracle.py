"""The Oracle: perfect outcome foresight (section 8's normalization base).

With an :class:`~repro.predictor.predictors.OraclePredictor` every commit
probability is exactly 0 or 1, so the speculation engine assigns value 1
to each change's single decisive build and value 0 to everything else —
the Oracle schedules exactly the n builds that will ever be needed, never
aborts, and never wastes a worker.
"""

from __future__ import annotations

from repro.predictor.predictors import OraclePredictor
from repro.strategies.submitqueue import SubmitQueueStrategy


class OracleStrategy(SubmitQueueStrategy):
    """SubmitQueue selection under a perfect predictor."""

    name = "Oracle"

    def __init__(self) -> None:
        super().__init__(OraclePredictor())
