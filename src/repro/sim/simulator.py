"""The simulation driver: an arrival schedule over the core service.

A :class:`Simulation` owns no event loop.  It builds one
:class:`~repro.service.core.CoreService` over an empty repository,
enqueues every change of a pre-timed stream at its arrival time and
pumps once, so label-mode figures run through exactly the loop the
served system runs: one ``plan()`` per submission, build completion or
stall, never one on a timer.  The run drains until every submitted
change is decided (or the :attr:`Simulation.MAX_MINUTES` horizon trips),
and returns the run's :class:`~repro.metrics.summary.RunSummary` from
the planner's tables.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.changes.change import Change
from repro.metrics.summary import RunSummary
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import BuildController
from repro.vcs.repository import Repository


class Simulation:
    """One end-to-end run of a strategy over a change stream."""

    #: Simulated minutes a run may last before the pump gives up: a year.
    MAX_MINUTES = 60.0 * 24 * 365

    def __init__(
        self,
        strategy,
        controller: BuildController,
        workers: int,
        conflict_predicate: Callable[[Change, Change], bool],
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        # Function-level: repro.service.core imports repro.sim.clock and
        # repro.sim.events, and importing either runs this package's
        # __init__, which imports this module.
        from repro.service.core import CoreService, CoreServiceConfig

        self.service = CoreService(
            Repository(),
            strategy,
            CoreServiceConfig(
                workers=workers, max_pump_minutes=self.MAX_MINUTES
            ),
            controller=controller,
            recorder=recorder,
            conflict_predicate=conflict_predicate,
        )
        self.planner = self.service.planner

    def run(self, stream: Sequence[Tuple[float, Change]]) -> RunSummary:
        """Simulate a (time, change) stream to drain and summarize it:
        throughput counts from the first arrival to the last decision."""
        ordered = sorted(stream, key=lambda item: item[0])
        for arrival_time, change in ordered:
            self.service.enqueue(change, at=arrival_time)
        decisions = self.service.pump()
        first_arrival = ordered[0][0] if ordered else 0.0
        last_decision_at = decisions[-1].at if decisions else 0.0
        return RunSummary.from_planner(
            self.planner,
            self.service.clock.now,
            makespan=max(0.0, last_decision_at - first_arrival),
        )
