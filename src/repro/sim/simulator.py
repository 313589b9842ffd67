"""The simulation driver: an arrival schedule over the core service.

A :class:`Simulation` owns no event loop.  It builds one
:class:`~repro.service.core.CoreService` over an empty repository,
enqueues every change of a pre-timed stream at its arrival time and
pumps once, so label-mode figures run through exactly the loop the
served system runs: one ``plan()`` per submission, build completion or
stall, never one on a timer.  The run drains until every submitted
change is decided (or the ``max_minutes`` horizon trips), then
summarizes turnaround and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.changes.change import Change
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import BuildController
from repro.planner.planner import Decision
from repro.types import ChangeId, ChangeState
from repro.vcs.repository import Repository


@dataclass
class SimulationResult:
    """Everything the evaluation section needs from one run."""

    strategy_name: str
    workers: int
    changes_submitted: int
    changes_committed: int
    changes_rejected: int
    makespan_minutes: float
    arrival_window_minutes: float
    turnarounds: Dict[ChangeId, float]
    decisions: List[Decision]
    utilization: float
    builds_started: int
    builds_aborted: int
    builds_completed: int
    build_minutes: float
    wasted_minutes: float
    #: Full-stack runs only: build steps executed vs eliminated (zero in
    #: label mode, where builds carry no step counts).
    steps_executed: int = 0
    steps_cached: int = 0

    @property
    def throughput_per_hour(self) -> float:
        """Committed changes per hour of makespan."""
        if self.makespan_minutes <= 0:
            return 0.0
        return self.changes_committed / (self.makespan_minutes / 60.0)

    def turnaround_values(self) -> List[float]:
        return list(self.turnarounds.values())


class Simulation:
    """One end-to-end run of a strategy over a change stream."""

    def __init__(
        self,
        strategy,
        controller: BuildController,
        workers: int,
        conflict_predicate: Callable[[Change, Change], bool],
        max_minutes: float = 60.0 * 24 * 365,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        # Function-level: repro.service.core imports repro.sim.clock and
        # repro.sim.events, and importing either runs this package's
        # __init__, which imports this module.
        from repro.service.core import CoreService, CoreServiceConfig

        self.service = CoreService(
            Repository(),
            strategy,
            CoreServiceConfig(workers=workers, max_pump_minutes=max_minutes),
            controller=controller,
            recorder=recorder,
            conflict_predicate=conflict_predicate,
        )
        self.planner = self.service.planner

    def run(self, stream: Sequence[Tuple[float, Change]]) -> SimulationResult:
        """Simulate a (time, change) stream to drain and summarize it."""
        ordered = sorted(stream, key=lambda item: item[0])
        for arrival_time, change in ordered:
            self.service.enqueue(change, at=arrival_time)
        decisions = self.service.pump()
        first_arrival = ordered[0][0] if ordered else 0.0
        last_decision_at = decisions[-1].at if decisions else 0.0
        return self._summarize(
            self.service.clock.now,
            max(0.0, last_decision_at - first_arrival),
            ordered[-1][0] - first_arrival if ordered else 0.0,
        )

    def _summarize(
        self, now: float, makespan: float, arrival_window: float
    ) -> SimulationResult:
        records = self.planner.records
        decided = sorted(
            (r for r in records.values() if r.state.is_terminal),
            key=lambda r: (r.decided_at, r.change_id),
        )
        turnarounds: Dict[ChangeId, float] = {}
        committed = rejected = 0
        for record in decided:
            if record.turnaround is not None:
                turnarounds[record.change_id] = record.turnaround
            if record.state is ChangeState.COMMITTED:
                committed += 1
            elif record.state is ChangeState.REJECTED:
                rejected += 1
        stats = self.planner.stats
        return SimulationResult(
            strategy_name=self.planner.strategy.name,
            workers=self.planner.workers.capacity,
            changes_submitted=len(records),
            changes_committed=committed,
            changes_rejected=rejected,
            makespan_minutes=makespan,
            arrival_window_minutes=arrival_window,
            turnarounds=turnarounds,
            decisions=self.planner.decisions(),
            utilization=self.planner.workers.utilization(now) if now > 0 else 0.0,
            builds_started=stats.builds_started,
            builds_aborted=stats.builds_aborted,
            builds_completed=stats.builds_completed,
            build_minutes=stats.build_minutes,
            wasted_minutes=stats.wasted_minutes,
            steps_executed=stats.steps_executed,
            steps_cached=stats.steps_cached,
        )
