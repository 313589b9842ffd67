"""The simulation driver.

Wires a :class:`~repro.planner.planner.PlannerEngine` to an event queue:
arrivals submit changes, completions feed back into the planner, and the
planner re-plans after every batch of same-timestamp events.  Aborted
builds have their completion events cancelled; restarted builds get fresh
ones.  The run drains until every submitted change is decided (or a
safety horizon trips), then summarizes turnaround and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.changes.change import Change
from repro.errors import SimulationError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import BuildController
from repro.planner.planner import Decision, PlannerEngine
from repro.planner.workers import WorkerPool
from repro.sim.events import EventHandle, EventQueue
from repro.types import BuildKey, ChangeId, ChangeState


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
        epoch_minutes: float = 2.0,
        recorder: Recorder = NULL_RECORDER,
        eager_replan: bool = False,
    ) -> None:
        """``epoch_minutes`` is the planner's re-selection cadence (the
        paper's planner "contacts the speculation engine on every epoch");
        completions still decide changes immediately.

        ``eager_replan`` replans after *every* event batch instead of
        rate-limiting to the epoch cadence.  The planner's input
        fingerprint makes no-op replans near-free, so this trades the
        tick machinery for instant reaction to arrivals and completions;
        the default keeps the paper's fixed-epoch behaviour (and the
        figure reproductions bit-identical)."""
        if epoch_minutes <= 0:
            raise ValueError("epoch_minutes must be positive")
        self.recorder = recorder
        self.planner = PlannerEngine(
            strategy=strategy,
            controller=controller,
            workers=WorkerPool(workers),
            conflict_predicate=conflict_predicate,
            recorder=recorder,
        )
        self._max_minutes = max_minutes
        self._epoch_minutes = epoch_minutes
        self._eager_replan = eager_replan
        self._events = EventQueue()
        self._completion_handles: Dict[BuildKey, EventHandle] = {}
        self._next_plan_at = 0.0
        self._tick_scheduled = False
        self._now = 0.0
        recorder.bind_clock(lambda: self._now)

    def run(self, stream: Sequence[Tuple[float, Change]]) -> SimulationResult:
        """Simulate a (time, change) stream to drain and summarize it."""
        ordered = sorted(stream, key=lambda item: item[0])
        for arrival_time, change in ordered:
            self._events.push(arrival_time, ("arrival", change))
        arrival_window = ordered[-1][0] - ordered[0][0] if ordered else 0.0

        now = 0.0
        last_decision_at = 0.0
        first_arrival = ordered[0][0] if ordered else 0.0
        while self._events:
            handle = self._events.pop()
            assert handle is not None
            now = handle.time
            self._now = now
            if now > self._max_minutes:
                raise SimulationError(
                    f"simulation exceeded max horizon {self._max_minutes} min"
                )
            batch = [handle]
            while self._events.peek_time() == now:
                next_handle = self._events.pop()
                assert next_handle is not None
                batch.append(next_handle)
            decided_now = False
            for event in batch:
                kind, payload = event.payload
                if kind == "arrival":
                    self.planner.submit(payload, now)
                elif kind == "completion":
                    self._completion_handles.pop(payload, None)
                    decisions = self.planner.complete(payload, now)
                    if decisions:
                        decided_now = True
                elif kind == "tick":
                    self._tick_scheduled = False
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind!r}")
            if decided_now:
                last_decision_at = now
            self._maybe_replan(now)

        if self.recorder.enabled:
            self.planner.finish_trace(now)
        return self._summarize(now, max(0.0, last_decision_at - first_arrival),
                               arrival_window)

    def _maybe_replan(self, now: float) -> None:
        """Replan at most once per epoch; otherwise schedule a tick."""
        if self._eager_replan:
            # Every event batch replans; unchanged-input epochs are
            # answered by the planner's fingerprint without touching the
            # strategy, so no tick events are needed at all.
            self._replan(now)
            return
        if now >= self._next_plan_at:
            self._replan(now)
            self._next_plan_at = now + self._epoch_minutes
            return
        # Work may be waiting for the next epoch; make sure one arrives.
        if not self._tick_scheduled and (
            self.planner.pending_count() > 0 or self.planner.workers.busy > 0
        ):
            self._events.push(self._next_plan_at, ("tick", None))
            self._tick_scheduled = True

    def _replan(self, now: float) -> None:
        result = self.planner.plan(now)
        for key in result.aborted:
            handle = self._completion_handles.pop(key, None)
            if handle is not None:
                self._events.cancel(handle)
        # The DES has no work between a dispatch and its resolution, so
        # the quiescent point is right here.
        for batch in self.planner.resolve_pending():
            for scheduled in batch.live:
                handle = self._events.push(
                    batch.at + scheduled.duration,
                    ("completion", scheduled.key),
                )
                self._completion_handles[scheduled.key] = handle

    def _summarize(
        self, now: float, makespan: float, arrival_window: float
    ) -> SimulationResult:
        ledger = self.planner.ledger
        turnarounds: Dict[ChangeId, float] = {}
        committed = rejected = 0
        for record in ledger.decided():
            if record.turnaround is not None:
                turnarounds[record.change_id] = record.turnaround
            if record.state is ChangeState.COMMITTED:
                committed += 1
            elif record.state is ChangeState.REJECTED:
                rejected += 1
        stats = self.planner.stats
        return SimulationResult(
            strategy_name=getattr(self.planner.strategy, "name", "strategy"),
            workers=self.planner.workers.capacity,
            changes_submitted=len(ledger),
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
