"""Planner engine and build controller (paper section 6).

The planner engine runs the epoch loop: ask the strategy for the builds
worth running, abort running builds that fell out of the selection,
schedule new ones onto workers, and commit or reject changes as decisive
build results arrive.  The build controller supplies per-build outcomes
and durations in either fidelity (label mode or full-stack), implements
minimal-build-step elimination, and load-balances workers.
"""

from repro.planner.workers import WorkerPool
from repro.planner.controller import (
    BuildController,
    FullStackBuildController,
    LabelBuildController,
)
from repro.planner.planner import (
    BuildRecord,
    Decision,
    Epoch,
    PlannerEngine,
    PlannerView,
)

__all__ = [
    "BuildController",
    "BuildRecord",
    "Decision",
    "Epoch",
    "FullStackBuildController",
    "LabelBuildController",
    "PlannerEngine",
    "PlannerView",
    "WorkerPool",
]
