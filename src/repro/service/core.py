"""Core-service wiring: an incremental, driveable SubmitQueue instance.

Unlike :class:`~repro.sim.simulator.Simulation` (which consumes a complete
pre-timed stream), the core service accepts submissions interactively —
the shape a production deployment has.  Internally it advances a
simulated clock over build-completion events; :meth:`pump` drains work
until the queue is idle.

The default configuration is full-stack: real repository, real build
graphs, real step execution, so committed patches actually land on the
mainline and the mainline is verifiably green after every pump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.changes.change import Change
from repro.conflict.analyzer import ConflictAnalyzer
from repro.errors import PatchConflictError, SimulationError
from repro.journal import records as journal_records
from repro.journal.sink import NULL_JOURNAL, JournalSink
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import BuildController, FullStackBuildController
from repro.planner.planner import Decision, PlannerEngine
from repro.planner.workers import WorkerPool
from repro.sim.clock import Clock
from repro.sim.events import EventHandle, EventQueue
from repro.strategies.base import Strategy
from repro.types import BuildKey
from repro.vcs.repository import Repository


@dataclass
class CoreServiceConfig:
    """The service's whole selection surface: six fields, one path each.

    The conflict analyzer is always refreshed after a mainline commit and
    advanced incrementally; builds always execute incrementally; idle-time
    analysis warming is always on when a build backend is attached.
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
    #: ``"local"`` or ``"process[:N]"``.  ``None`` — the default — keeps
    #: builds inline and never imports ``repro.parallel``.  Decisions are
    #: bit-identical across backends; what the journal must preserve is
    #: only the overlapped *record tempo* (epoch records are emitted at
    #: resolution, not dispatch), so the journaled config carries a single
    #: ``overlapped`` flag and recovery replays overlapped runs through
    #: the serial ``"local"`` backend.
    build_backend: Optional[str] = None
    #: Queue-backend spec for ``repro.sharding.create_queue_backend``:
    #: ``"sharded[:N]"``.  ``None`` — the default — keeps the monolithic
    #: queue + analyzer and never imports ``repro.sharding``.  Decisions,
    #: commit order, and state fingerprints are bit-identical either way
    #: (the sharded sweep only skips provably-disjoint pairs); the spec is
    #: journaled so a recovered service keeps its shard metrics.
    queue_backend: Optional[str] = None
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
    ) -> None:
        """``recorder``: an optional :class:`~repro.obs.recorder.Recorder`;
        when attached, the whole stack — planner epochs and builds,
        speculation-engine selections, conflict-analyzer counters, build
        cache hits, turnaround and greenness — reports through it.  The
        default no-op recorder costs nothing."""
        self.repo = repo
        self.config = config
        self.recorder = recorder
        self.controller = (
            controller
            if controller is not None
            else FullStackBuildController(repo, recorder=recorder)
        )
        queue = None
        snapshot = repo.snapshot().to_dict()
        if config.queue_backend is not None:
            # Lazy import — the single place the service touches
            # repro.sharding, so the default path never loads it.
            from repro.sharding import create_queue_backend

            self._analyzer, queue = create_queue_backend(
                config.queue_backend, snapshot, recorder
            )
        else:
            self._analyzer = ConflictAnalyzer(snapshot, recorder=recorder)
        self.planner = PlannerEngine(
            strategy=strategy,
            controller=self.controller,
            workers=WorkerPool(config.workers),
            conflict_predicate=self._conflict_predicate,
            recorder=recorder,
            queue=queue,
        )
        self.clock = Clock()
        recorder.bind_clock(lambda: self.clock.now)
        self._events = EventQueue()
        self._completion_handles: Dict[BuildKey, EventHandle] = {}
        self._submission_handles: List[EventHandle] = []
        #: Journal payloads for dispatched-but-unresolved epochs, emitted
        #: by _resolve_builds in dispatch order (overlapped path only).
        self._deferred_journal: List[Dict[str, object]] = []
        self._warmed_analyses: Set[str] = set()
        self._head_at_analyzer = repo.head()
        self._backend = None
        if config.build_backend is not None:
            attach = getattr(self.controller, "attach_backend", None)
            if attach is not None:
                # Lazy import — the single place the service touches
                # repro.parallel, so the serial path never loads it.
                from repro.parallel import create_build_backend

                self._backend = create_build_backend(
                    config.build_backend, recorder=recorder
                )
                attach(
                    self._backend,
                    idle_hook=self._warm_pending_analysis,
                    step_wall_seconds=config.step_wall_seconds,
                )
        self._journal = config.journal if config.journal is not None else NULL_JOURNAL
        if self._journal.enabled:
            from repro.journal.snapshots import (
                encode_config,
                repo_payload,
                strategy_spec,
            )

            self._journal.append(
                journal_records.init_record(
                    self.clock.now,
                    encode_config(config),
                    strategy_spec(strategy),
                    repo_payload(repo),
                )
            )

    # -- conflict analysis ----------------------------------------------------

    def _conflict_predicate(self, first: Change, second: Change) -> bool:
        self._maybe_refresh_analyzer()
        return self._analyzer.conflict(first, second)

    def _maybe_refresh_analyzer(self) -> None:
        """Advance the analyzer (pinned to a HEAD snapshot) past new commits."""
        if self.repo.head() == self._head_at_analyzer:
            return
        # Unknown paths (old head not an ancestor of the new one) degrade
        # to a from-scratch rebuild inside advance_base; known paths carry
        # cached analyses over.
        self._analyzer.advance_base(
            self.repo.snapshot().to_dict(),
            self._committed_paths_since(self._head_at_analyzer),
        )
        self._head_at_analyzer = self.repo.head()

    def _committed_paths_since(self, old_head) -> Optional[Set[str]]:
        """Union of paths touched by mainline commits after ``old_head``."""
        paths: Set[str] = set()
        for commit_id in self.repo.ancestors(self.repo.head()):
            if commit_id == old_head:
                return paths
            paths.update(self.repo.commit(commit_id).delta)
        return None  # old head is not an ancestor of the new head

    @property
    def analyzer(self) -> ConflictAnalyzer:
        return self._analyzer

    # -- journaling ---------------------------------------------------------

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

    def submit(self, change: Change) -> None:
        """Enqueue a change at the current service time."""
        if self._journal.enabled:
            self._journal.append(
                journal_records.submit_record(self.clock.now, change)
            )
        self.planner.submit(change, self.clock.now)
        if self.recorder.enabled:
            self.recorder.counter(
                "service_submissions_total", "Changes submitted to the queue."
            ).inc()
            self.recorder.event(
                "submit",
                category="service",
                track="service",
                change_id=change.change_id,
            )
        self._replan()

    def enqueue(self, change: Change, at: Optional[float] = None) -> None:
        """Schedule a submission to arrive at service time ``at``.

        The overlapped ingestion path: the submission becomes an event on
        the pump loop (``at`` in the past clamps to *now*), interleaving
        with build completions in time order, and is accepted — journaled,
        planned — only when the loop reaches it.  Until then the backend's
        idle hook may warm conflict analyses for it; both are
        outcome-neutral, so decisions match a driver that calls
        :meth:`submit` at the same instants.
        """
        when = self.clock.now if at is None else max(at, self.clock.now)
        handle = self._events.push(when, _QueuedSubmission(change))
        self._submission_handles.append(handle)
        if self.recorder.enabled:
            self.recorder.counter(
                "service_enqueued_total",
                "Submissions scheduled onto the pump loop.",
            ).inc()

    def queued_submissions(self) -> List[Change]:
        """Scheduled-but-not-yet-accepted submissions, in fire order."""
        live = [
            (handle.time, handle.seq, handle.payload.change)
            for handle in self._submission_handles
            if not handle.cancelled
        ]
        live.sort(key=lambda item: (item[0], item[1]))
        return [change for _, _, change in live]

    def _warm_pending_analysis(self) -> None:
        """Backend idle hook: warm one queued change's conflict analysis.

        Outcome-neutral by construction — per-change analyses are pure
        functions of ``(change, head snapshot)``, cached inside the
        analyzer, and excluded from state fingerprints; computing one
        early changes *when* work happens, never what is decided.
        """
        for handle in self._submission_handles:
            if handle.cancelled:
                continue
            change = handle.payload.change
            if change.change_id in self._warmed_analyses:
                continue
            self._warmed_analyses.add(change.change_id)
            self._maybe_refresh_analyzer()
            # Under a sharded backend, warm through the change's own
            # per-shard view — the views share the parent's caches, so
            # this is the same computation scoped to the owning shard.
            view_for = getattr(self._analyzer, "shard_view_for", None)
            analyzer = self._analyzer if view_for is None else view_for(change)
            try:
                analyzer.analyze(change)
            except PatchConflictError:
                # Nothing to warm: the patch no longer applies to the head,
                # and the change's own build will report the merge conflict.
                pass
            if self.recorder.enabled:
                self.recorder.counter(
                    "service_overlap_warm_analyses_total",
                    "Conflict analyses warmed while builds were in flight.",
                ).inc()
            return

    @property
    def backend(self):
        """The attached build backend, or ``None`` on the serial path."""
        return self._backend

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent.

        Anything still dispatched resolves first so the service is left
        at a quiescent point (pump() always drains, so this only does
        work when a caller closes between a submit and its pump).
        """
        if self._backend is not None:
            self._resolve_builds()
            detach = getattr(self.controller, "detach_backend", None)
            if detach is not None:
                detach()
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
        if steps and self._journal.enabled:
            self._journal.append(
                journal_records.pump_end_record(self.clock.now, len(decisions))
            )
            self._journal.maybe_snapshot(self)
        if self.recorder.enabled:
            self.planner.finish_trace(self.clock.now)
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

        Pops the next completion event (or replans on a stall) and applies
        its decisions.  Both the pump loop and journal replay drive the
        service through this method — replay passes ``guard=None`` since a
        journal is finite.  Every step journals its *input* (the stall or
        the build completion) before applying it, so a crash mid-step
        re-drives the step from the journal.
        """
        # Quiescent point: anything dispatched to a backend since the
        # last step resolves now, before the loop pops (or times) the
        # next event — its completions may be the earliest events there are.
        self._resolve_builds()
        handle = self._events.pop()
        if handle is None:
            # No events but changes pending: replan (the stall guard in
            # the planner will start the head's decisive build).
            if self._journal.enabled:
                self._journal.append(journal_records.stall_record(self.clock.now))
            self._replan()
            self._resolve_builds()
            if not self._events:
                raise SimulationError("core service stalled with pending changes")
            return []
        self.clock.advance_to(handle.time)
        if guard is not None and self.clock.now > guard:
            raise SimulationError("pump exceeded max_pump_minutes")
        if isinstance(handle.payload, _QueuedSubmission):
            # A scheduled submission reached its fire time: accept it
            # exactly as an interactive submit() at this instant would be
            # — journaled first, then planned — so replay re-drives it
            # from the journal's submit record.
            self._submission_handles.remove(handle)
            self._warmed_analyses.discard(handle.payload.change.change_id)
            self.submit(handle.payload.change)
            return []
        key = handle.payload
        self._completion_handles.pop(key, None)
        if self._journal.enabled:
            self._journal.append(
                journal_records.build_finish_record(self.clock.now, key, None)
            )
        mainline_before = self.repo.mainline_length()
        new_decisions = self.planner.complete(key, self.clock.now)
        # Batch-protocol strategies buffer their resolutions (batch landed /
        # bisected) during complete(); drain them unconditionally so the
        # buffer never grows, journal them only when a sink is attached.
        # Batching-off runs emit no batch records, keeping their journals
        # byte-identical to the golden pins.
        drain = getattr(self.planner.strategy, "drain_journal_events", None)
        if drain is not None:
            for event in drain():
                if self._journal.enabled:
                    self._journal.append(
                        journal_records.batch_record(
                            event["at"],
                            event["kind"],
                            event["members"],
                            event["depth"],
                        )
                    )
        if self._journal.enabled:
            commit_index = mainline_before
            for decision in new_decisions:
                self._journal.append(
                    journal_records.decision_record(
                        self.clock.now,
                        decision.change_id,
                        decision.committed,
                        decision.reason,
                    )
                )
                if decision.committed:
                    commit_id = self.repo.mainline_history()[commit_index]
                    self._journal.append(
                        journal_records.commit_record(
                            self.clock.now,
                            decision.change_id,
                            commit_index,
                            self.repo.commit(commit_id).delta,
                        )
                    )
                    commit_index += 1
        for decision in new_decisions:
            # Decided changes leave the pending set; evict them so the
            # analyzer's per-change and pair caches stay bounded.
            self._analyzer.forget(decision.change_id)
        self._replan()
        return new_decisions

    def _replan(self) -> None:
        result = self.planner.plan(self.clock.now)
        # Overlapped dispatches carry no duration yet; their epoch /
        # build-start / worker records are journaled at resolution (in
        # dispatch order, with the resolved durations) by
        # _resolve_builds.  A plan that only aborts journals inline.
        deferred = any(s.duration is None for s in result.started)
        if self._journal.enabled and (result.started or result.aborted):
            if deferred:
                workers = self.planner.workers
                self._deferred_journal.append(
                    {
                        "at": self.clock.now,
                        "keys": [s.key for s in result.started],
                        "aborted": list(result.aborted),
                        "busy": workers.busy,
                        "capacity": workers.capacity,
                    }
                )
            else:
                self._journal.append(
                    journal_records.epoch_record(
                        self.clock.now,
                        [scheduled.key for scheduled in result.started],
                        list(result.aborted),
                    )
                )
                for scheduled in result.started:
                    self._journal.append(
                        journal_records.build_start_record(
                            self.clock.now, scheduled.key, scheduled.duration
                        )
                    )
                workers = self.planner.workers
                self._journal.append(
                    journal_records.worker_record(
                        self.clock.now, workers.busy, workers.capacity
                    )
                )
        for key in result.aborted:
            pending = self._completion_handles.pop(key, None)
            if pending is not None:
                self._events.cancel(pending)
        for scheduled in result.started:
            if scheduled.duration is None:
                continue  # timed at resolution
            handle = self._events.push(
                self.clock.now + scheduled.duration, scheduled.key
            )
            self._completion_handles[scheduled.key] = handle

    def _resolve_builds(self) -> None:
        """Merge dispatched builds back in before the loop pops anything.

        The deterministic quiescent point of the overlapped pump: every
        batch the backend holds is resolved in dispatch order, its
        deferred journal records are emitted (timestamped at the dispatch
        instant, which the clock has not left), and its completion events
        are timed exactly where the inline path would have put them.
        """
        planner = self.planner
        if not planner.has_pending_builds():
            return
        infos, self._deferred_journal = self._deferred_journal, []
        batches = planner.resolve_pending()
        for index, batch in enumerate(batches):
            if self._journal.enabled and index < len(infos):
                info = infos[index]
                self._journal.append(
                    journal_records.epoch_record(
                        info["at"], list(info["keys"]), list(info["aborted"])
                    )
                )
                for key, execution in zip(batch.keys, batch.executions):
                    self._journal.append(
                        journal_records.build_start_record(
                            info["at"], key, execution.duration
                        )
                    )
                self._journal.append(
                    journal_records.worker_record(
                        info["at"], info["busy"], info["capacity"]
                    )
                )
            for scheduled in batch.live:
                handle = self._events.push(
                    batch.at + scheduled.duration, scheduled.key
                )
                self._completion_handles[scheduled.key] = handle
