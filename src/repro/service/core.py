"""Core-service wiring: an incremental, driveable SubmitQueue instance.

The core service accepts submissions interactively — the shape a
production deployment has.  Internally it advances a simulated clock over
submission and build-completion events; :meth:`pump` drains work until
the queue is idle.  Its pump is the only loop that owns time and the only
caller of ``PlannerEngine.plan``/``complete``/``resolve_pending``:
:class:`~repro.sim.simulator.Simulation` (a complete pre-timed stream) is
an arrival schedule of :meth:`CoreService.enqueue` calls over it.

The default configuration is full-stack: real repository, real build
graphs, real step execution, so committed patches actually land on the
mainline and the mainline is verifiably green after every pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.changes.change import Change
from repro.conflict.analyzer import ConflictAnalyzer
from repro.errors import DuplicateChangeError, SimulationError
from repro.journal import records as rec
from repro.journal.sink import NULL_JOURNAL, JournalSink
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import BuildController, FullStackBuildController
from repro.planner.planner import Decision, PlannerEngine
from repro.planner.workers import WorkerPool
from repro.sim.clock import Clock
from repro.sim.events import EventHandle, EventQueue
from repro.strategies.base import Strategy
from repro.types import BuildKey, ChangeId
from repro.vcs.repository import Repository


@dataclass
class CoreServiceConfig:
    """The service's whole selection surface: five fields, one path each.

    The conflict analyzer always borrows the build controller's base
    context, adopting the advanced one after a mainline commit; builds
    always execute incrementally and are always dispatched at plan time
    and resolved at the pump's next quiescent point; a submission is
    always conflict-checked against the analyzer's candidates only, never
    the whole pending set.
    """

    #: Simulated build workers (the planner's per-epoch build budget).
    workers: int = 8
    #: A single ``pump()`` advancing the clock further than this raises.
    max_pump_minutes: float = 60.0 * 24 * 30
    #: Durable event journal (a :class:`~repro.journal.JournalWriter`).
    #: ``None`` — the default — attaches the zero-cost null sink.  This
    #: field is read once at construction; attach/detach later via
    #: :meth:`CoreService.attach_journal` (the config object may be the
    #: shared default instance and must never be mutated).
    journal: Optional[JournalSink] = None
    #: Build-backend spec for ``repro.parallel.create_build_backend``:
    #: ``"process[:N]"``.  ``None`` — the default — runs each batch
    #: in-process at dispatch and never imports ``repro.parallel``.
    #: Decisions, state fingerprints at every point a driver can observe,
    #: and journal bytes are identical either way, so the spec is
    #: wall-side only: it is not journaled, and recovery replays every
    #: journal without a backend.
    build_backend: Optional[str] = None
    #: Synthetic wall-clock cost per executed build step, forwarded to
    #: backend workers (models the real compile/test subprocess; 0 keeps
    #: execution purely synthetic).  Wall-clock only — never influences
    #: simulated durations or decisions.
    step_wall_seconds: float = 0.0


@dataclass(frozen=True)
class _QueuedSubmission:
    """Event payload for a submission scheduled onto the pump loop.

    Queued submissions are *not* durable: the journal records a
    submission when it fires (as an ordinary ``submit`` record at its
    fire time), so a crash between ``enqueue`` and the pump loses only
    submissions the service never accepted — the same contract a
    production front-end queue has.
    """

    change: Change


class CoreService:
    """SubmitQueue's core service over a real repository."""

    def __init__(
        self,
        repo: Repository,
        strategy: Strategy,
        config: CoreServiceConfig = CoreServiceConfig(),
        controller: Optional[BuildController] = None,
        recorder: Recorder = NULL_RECORDER,
        conflict_predicate: Optional[Callable[[Change, Change], bool]] = None,
    ) -> None:
        """``recorder``: an optional :class:`~repro.obs.recorder.Recorder`;
        when attached, the whole stack's metrics — speculation-engine
        selections, conflict-analyzer counters, build cache hits,
        turnaround and greenness — report through it, and its trace is
        the fold of the lifecycle records :meth:`_emit` hands it.  The
        default no-op recorder costs nothing.

        ``conflict_predicate``: what the planner's conflict graph asks
        about two changes.  ``None`` — the default — is the service's own
        analyzer over the controller's base context (built at the first
        query), which also narrows each submission's sweep to its conflict
        candidates; label-mode runs, whose changes carry no patches, pass
        a predicate over the labels instead, that predicate is asked about
        every pending pair, and no analyzer is ever built."""
        self.repo = repo
        self.config = config
        self.recorder = recorder
        self.controller = (
            controller
            if controller is not None
            else FullStackBuildController(repo, recorder=recorder)
        )
        #: Built by the first conflict query, so a service that is handed
        #: a ``conflict_predicate`` (and never asks) has none.
        self._analyzer: Optional[ConflictAnalyzer] = None
        self.planner = PlannerEngine(
            strategy=strategy,
            controller=self.controller,
            workers=WorkerPool(config.workers),
            conflict_predicate=(
                conflict_predicate
                if conflict_predicate is not None
                else self._conflict_predicate
            ),
            recorder=recorder,
            conflict_candidates=(
                self._conflict_candidates
                if conflict_predicate is None
                else None
            ),
        )
        self.clock = Clock()
        recorder.bind_clock(lambda: self.clock.now)
        self._events = EventQueue()
        self._completion_handles: Dict[BuildKey, EventHandle] = {}
        #: Scheduled-but-not-yet-accepted submissions by change id, in
        #: enqueue order.
        self._submission_handles: Dict[ChangeId, EventHandle] = {}
        self._head_at_analyzer = None
        self._backend = None
        if config.build_backend is not None:
            # Lazy import — the single place the service touches
            # repro.parallel, so a backend-less service never loads it.
            # The pool starts at the first batch, so a controller that
            # refuses the backend leaves none behind.
            from repro.parallel import create_build_backend

            backend = create_build_backend(
                config.build_backend, recorder=recorder
            )
            self.controller.attach_backend(backend, config.step_wall_seconds)
            self._backend = backend
        self._journal = config.journal if config.journal is not None else NULL_JOURNAL
        if self._journal.enabled:
            from repro.journal.snapshots import (
                encode_config,
                repo_payload,
                strategy_spec,
            )

            self._journal.append(
                rec.init_record(
                    self.clock.now,
                    encode_config(config),
                    strategy_spec(strategy),
                    repo_payload(repo),
                )
            )

    # -- conflict analysis ----------------------------------------------------

    def _conflict_predicate(self, first: Change, second: Change) -> bool:
        return self._current_analyzer().conflict(first, second)

    def _conflict_candidates(
        self, change: Change, pending: Sequence[Change]
    ) -> Optional[List[ChangeId]]:
        return self._current_analyzer().conflict_candidates(change, pending)

    def _current_analyzer(self) -> ConflictAnalyzer:
        """The analyzer, its base the controller's context for the HEAD.

        Built at the first query and advanced past new commits at the
        next one; either way the base is borrowed, never loaded or
        rehashed here — the controller already advanced it to land the
        commit.
        """
        head = self.repo.head()
        if self._analyzer is None:
            self._analyzer = ConflictAnalyzer(
                self.controller.base_context(), recorder=self.recorder
            )
        elif head != self._head_at_analyzer:
            # Unknown paths (old head not an ancestor of the new one) drop
            # every cached analysis inside advance_base; known paths carry
            # them over.
            self._analyzer.advance_base(
                self.controller.base_context(),
                self._committed_paths_since(self._head_at_analyzer),
            )
        self._head_at_analyzer = head
        return self._analyzer

    def _committed_paths_since(self, old_head) -> Optional[Set[str]]:
        """Union of paths touched by mainline commits after ``old_head``."""
        paths: Set[str] = set()
        for commit_id in self.repo.ancestors(self.repo.head()):
            if commit_id == old_head:
                return paths
            paths.update(self.repo.commit(commit_id).delta)
        return None  # old head is not an ancestor of the new head

    @property
    def analyzer(self) -> Optional[ConflictAnalyzer]:
        """``None`` until the first conflict query — for good when a
        ``conflict_predicate`` answers them instead."""
        return self._analyzer

    # -- journaling ---------------------------------------------------------

    def _emit(self, build: Callable[..., dict], *args) -> None:
        """The one lifecycle writer: build a record with ``build(*args)``
        and hand it to the journal and the recorder, which keeps it for
        its trace — built only when one of the two is on."""
        journal, recorder = self._journal, self.recorder
        if journal.enabled or recorder.enabled:
            record = build(*args)
            if journal.enabled:
                journal.append(record)
            if recorder.enabled:
                recorder.event(record)

    @property
    def journal(self) -> JournalSink:
        return self._journal

    def attach_journal(self, sink: Optional[JournalSink]) -> None:
        """Swap the journal sink (``None`` detaches to the null sink).

        Used by recovery: the service replays against a verifying sink,
        then switches to the resumed on-disk writer.
        """
        self._journal = sink if sink is not None else NULL_JOURNAL

    # -- operation ----------------------------------------------------------

    def _refuse_duplicate(self, change: Change) -> None:
        """Raise for a change id the service already holds — queued,
        pending or decided — before anything is journaled or scheduled:
        a journaled duplicate would fail again on every replay."""
        if (
            change.change_id in self.planner.records
            or change.change_id in self._submission_handles
        ):
            raise DuplicateChangeError(change.change_id)

    def submit(self, change: Change) -> None:
        """Enqueue a change at the current service time."""
        self._refuse_duplicate(change)
        self._emit(rec.submit_record, self.clock.now, change)
        self.planner.submit(change, self.clock.now)
        if self.recorder.enabled:
            self.recorder.counter(
                "service_submissions_total", "Changes submitted to the queue."
            ).inc()
        self._replan()

    def enqueue(self, change: Change, at: Optional[float] = None) -> None:
        """Schedule a submission to arrive at service time ``at``.

        The timed ingestion path: the submission becomes an event on
        the pump loop (``at`` in the past clamps to *now*), interleaving
        with build completions in time order, and is accepted — journaled,
        planned — only when the loop reaches it — so decisions match a
        driver that calls :meth:`submit` at the same instants.
        """
        self._refuse_duplicate(change)
        when = self.clock.now if at is None else max(at, self.clock.now)
        handle = self._events.push(when, _QueuedSubmission(change))
        self._submission_handles[change.change_id] = handle
        if self.recorder.enabled:
            self.recorder.counter(
                "service_enqueued_total",
                "Submissions scheduled onto the pump loop.",
            ).inc()

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent.

        Anything still dispatched resolves first so the service is left
        at a quiescent point (pump() always drains, so this only does
        work when a caller closes between a submit and its pump); no
        dispatched batch outlives the backend.
        """
        self._resolve_builds()
        if self._backend is not None:
            self.controller.detach_backend()
            self._backend.close()
            self._backend = None

    def pump(self) -> List[Decision]:
        """Advance time until every submitted change is decided."""
        pump_span = None
        if self.recorder.enabled:
            pump_span = self.recorder.start_span(
                "pump",
                category="service",
                track="service",
                pending=self.planner.pending_count(),
            )
        decisions: List[Decision] = []
        guard = self.clock.now + self.config.max_pump_minutes
        steps = 0
        while self._events or self.planner.pending_count() > 0:
            decisions.extend(self._step(guard))
            steps += 1
        # The last step's replan may have aborted a moot speculation;
        # journal that epoch before the pump (and its snapshot) closes.
        self._resolve_builds()
        if steps and self._journal.enabled:
            self._journal.append(
                rec.pump_end_record(self.clock.now, len(decisions))
            )
            self._journal.maybe_snapshot(self)
        if self.recorder.enabled:
            committed = sum(1 for d in decisions if d.committed)
            self.recorder.gauge(
                "service_greenness_ratio",
                "Committed fraction of the decisions this pump produced.",
            ).set(committed / len(decisions) if decisions else 1.0)
            self.recorder.finish_span(
                pump_span, decisions=len(decisions), committed=committed
            )
        return decisions

    def _step(self, guard: Optional[float]) -> List[Decision]:
        """Advance the event loop by exactly one step.

        Pops the next completion event and applies its decisions; on a
        stall (no event, changes pending) it decides what is decidable or
        else replans.  Both the pump loop and journal replay drive the
        service through this method — replay passes ``guard=None`` since a
        journal is finite.  Every step journals its *input* (the stall or
        the build completion) before applying it, so a crash mid-step
        re-drives the step from the journal.
        """
        # Quiescent point: anything dispatched since the last step
        # resolves now, before the loop pops (or times) the next event —
        # its completions may be the earliest events there are.
        self._resolve_builds()
        handle = self._events.pop()
        if handle is None:
            # No events but changes pending.  A reorder can leave a change
            # ready whose decisive build already finished: decide it now.
            # Otherwise replan (the planner's stall guard starts the
            # decisive build of the oldest ready change).
            self._emit(rec.stall_record, self.clock.now)
            mainline_before = self.repo.mainline_length()
            new_decisions = self.planner.decide_ready(self.clock.now)
            if not new_decisions:
                self._replan()
                self._resolve_builds()
                if not self._events:
                    raise SimulationError(
                        "core service stalled with pending changes"
                    )
                return []
        else:
            self.clock.advance_to(handle.time)
            if guard is not None and self.clock.now > guard:
                raise SimulationError("pump exceeded max_pump_minutes")
            if isinstance(handle.payload, _QueuedSubmission):
                # A scheduled submission reached its fire time: accept it
                # exactly as an interactive submit() at this instant would
                # be — journaled first, then planned — so replay re-drives
                # it from the journal's submit record.
                change = handle.payload.change
                del self._submission_handles[change.change_id]
                self.submit(change)
                return []
            key = handle.payload
            self._completion_handles.pop(key, None)
            success = self.planner.builds[key].execution.success
            self._emit(rec.build_finish_record, self.clock.now, key, success)
            mainline_before = self.repo.mainline_length()
            new_decisions = self.planner.complete(key, self.clock.now)
        # Batch-protocol strategies buffer their resolutions (batch landed /
        # bisected) during complete(); drain them unconditionally so the
        # buffer never grows.  Batching-off runs emit no batch records,
        # keeping their journals byte-identical to the golden pins.
        for event in self.planner.strategy.drain_journal_events():
            self._emit(
                rec.batch_record,
                event["at"],
                event["kind"],
                event["members"],
                event["depth"],
            )
        if self._journal.enabled or self.recorder.enabled:
            # Committed decisions pair off with the commits they landed, in
            # order; a label-mode controller lands none, so writes none.
            now, index = self.clock.now, mainline_before
            landed = iter(self.repo.mainline_history()[mainline_before:])
            for decision in new_decisions:
                change_id = decision.change_id
                self._emit(
                    rec.decision_record,
                    now,
                    change_id,
                    decision.committed,
                    decision.reason,
                    self.planner.records[change_id].turnaround,
                )
                commit_id = next(landed, None) if decision.committed else None
                if commit_id is not None:
                    delta = self.repo.commit(commit_id).delta
                    self._emit(rec.commit_record, now, change_id, index, delta)
                    index += 1
        if self._analyzer is not None:
            for decision in new_decisions:
                # Decided changes leave the pending set; evict them so the
                # analyzer's per-change cache and candidate index stay
                # bounded.
                self._analyzer.forget(decision.change_id)
        self._replan()
        return new_decisions

    def _replan(self) -> None:
        for key in self.planner.plan(self.clock.now).aborted:
            pending = self._completion_handles.pop(key, None)
            if pending is not None:
                self._events.cancel(pending)

    def _resolve_builds(self) -> None:
        """Merge dispatched builds back in before the loop pops anything.

        The pump's deterministic quiescent point, and the only place an
        ``epoch`` / ``build_start`` / ``worker`` record is emitted or a
        completion event is timed: every epoch the planner resolves is
        taken in plan order, its records are emitted (timestamped at the
        plan instant, which the clock has not left) with the durations its
        batch resolved to, and its live builds' completions are pushed at
        that instant plus their durations.
        """
        recorder = self.recorder
        for epoch in self.planner.resolve_pending():
            at = epoch.at
            self._emit(
                rec.epoch_record, at, epoch.started, epoch.aborted, epoch.queue
            )
            for execution in epoch.executions:
                self._emit(
                    rec.build_start_record, at, execution.key, execution.duration
                )
                if execution.worker is not None and recorder.enabled:
                    recorder.attach_worker(execution.worker)
            self._emit(rec.worker_record, at, epoch.busy, epoch.capacity)
            for build in epoch.live:
                self._completion_handles[build.key] = self._events.push(
                    at + build.execution.duration, build.key
                )
