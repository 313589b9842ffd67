"""The planner engine (paper sections 3.2 and 6).

Event-driven core shared by every strategy:

* :meth:`PlannerEngine.submit` — enqueue a change, extend the conflict
  graph, set the change's conflicting-ancestor list on its record;
* :meth:`PlannerEngine.plan` — ask the strategy for the current most
  valuable builds, abort running builds that fell out of the selection,
  start newly selected ones while workers are free and dispatch them to
  the build controller; the returned :class:`Epoch` holds the batch until it
  resolves;
* :meth:`PlannerEngine.resolve_pending` — the one way an outcome comes
  back (section 6's asynchronous build controller): the driver calls it
  at its next quiescent point and times a completion event for every
  live build of every epoch it returns, whether the controller ran the
  builds inline or on worker processes;
* :meth:`PlannerEngine.complete` — record a finished build, then commit or
  reject every change whose fate is now decided (a change's *decisive*
  build is the one whose assumed set equals the ancestors that actually
  committed), cascading until a fixpoint.

Each pending change carries a count of its undecided ancestors.  A
decision decrements its dependents' counts and a reorder moves one unit;
a change whose count reaches zero is *ready*, and its decisive key is
memoised then.  The decision step visits only ready changes, so its cost
follows what a completion moved, not the length of the queue.

The strategy is told what moved rather than left to find it: a submit, a
decision, an applied reorder and a finished build each reach it as a
hook call (:class:`~repro.strategies.base.Strategy`).

The driver (:class:`~repro.service.core.CoreService`'s pump) owns time;
the planner is a pure state machine over ``now`` values it is handed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.changes.change import Change
from repro.changes.state import ChangeRecord
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import NoWorkerAvailableError, PlannerError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import metric_field
from repro.planner.controller import BuildController, BuildExecution
from repro.types import BuildKey, ChangeId


@dataclass(frozen=True)
class Decision:
    """A terminal verdict on one change."""

    change_id: ChangeId
    committed: bool
    at: float
    reason: str = ""


@dataclass
class BuildRecord:
    """Planner-side bookkeeping for one build key.

    ``execution`` is ``None`` between a build's dispatch and its
    resolution; completions can only fire after resolution (the event is
    scheduled then), so every consumer of the outcome sees it filled.
    """

    key: BuildKey
    execution: Optional[BuildExecution]
    started_at: float
    completed_at: Optional[float] = None
    aborted: bool = False

    @property
    def done(self) -> bool:
        return self.completed_at is not None


@dataclass
class Epoch:
    """One :meth:`PlannerEngine.plan` call, held from dispatch until its
    batch resolves.

    ``queue``, ``busy`` and ``capacity`` are read after the epoch's starts
    (no decision lands inside a plan), for an epoch that started or
    aborted anything.  ``builds`` are the started builds'
    records and ``batch`` the controller's handle on them, both in
    selection order; :meth:`PlannerEngine.resolve_pending` calls the
    handle and fills ``executions`` (the whole batch) and ``live`` (the
    builds neither aborted nor re-dispatched since, whose completions the
    driver times at ``at + execution.duration``).
    """

    at: float
    started: List[BuildKey] = field(default_factory=list)
    aborted: List[BuildKey] = field(default_factory=list)
    queue: int = 0
    busy: int = 0
    capacity: int = 0
    builds: List[BuildRecord] = field(default_factory=list)
    batch: Optional[Callable[[], List[BuildExecution]]] = None
    executions: List[BuildExecution] = field(default_factory=list)
    live: List[BuildRecord] = field(default_factory=list)


@dataclass
class PlannerStats:
    """The planner's aggregate counts; each ``metric_field`` is also its
    ``/metrics`` series, read from here."""

    builds_started: int = metric_field(
        "planner_builds_started_total", "Speculative builds started."
    )
    builds_completed: int = metric_field(
        "planner_builds_completed_total", "Speculative builds finished."
    )
    builds_aborted: int = metric_field(
        "planner_builds_aborted_total",
        "Speculative builds aborted after deselection.",
    )
    build_minutes: float = metric_field(
        "planner_build_minutes_total", "Total build minutes spent.", default=0.0
    )
    wasted_minutes: float = metric_field(
        "planner_wasted_minutes_total",
        "Build minutes thrown away by aborts.",
        default=0.0,
    )
    plan_calls: int = metric_field(
        "planner_plan_calls_total", "Planner epochs (plan() calls)."
    )
    #: Never incremented and not a field, so no encoding carries it;
    #: ``bench/worker.py`` still reads it.
    plan_calls_skipped = 0
    #: Build steps actually executed / eliminated across started builds.
    steps_executed: int = metric_field(
        "build_steps_executed_total",
        "Build steps actually executed (cache misses).",
    )
    steps_cached: int = metric_field(
        "build_steps_cached_total",
        "Build steps eliminated via the artifact cache.",
    )


class _PlannerMetrics:
    """Hoisted recorder handles for the planner's per-event instrumentation.

    ``recorder.counter(...)`` does a family lookup (dict get + label-key
    sort) on every call; the planner emits several per build and per
    decision, so resolve each series once and reuse the handle.  Counts
    :class:`PlannerStats` keeps are exposed from it, not pushed here.
    """

    __slots__ = (
        "queue_depth",
        "workers_busy",
        "worker_utilization",
        "build_duration",
        "decisions_committed",
        "decisions_rejected",
        "turnaround",
    )

    def __init__(self, recorder: Recorder) -> None:
        self.queue_depth = recorder.gauge(
            "planner_queue_depth", "Pending changes at epoch start."
        )
        self.workers_busy = recorder.gauge(
            "planner_workers_busy", "Busy workers after the epoch's starts."
        )
        self.worker_utilization = recorder.gauge(
            "planner_worker_utilization",
            "Busy fraction of the worker fleet after the epoch.",
        )
        self.build_duration = recorder.histogram(
            "planner_build_duration_minutes",
            "Durations of completed builds.",
        )
        self.decisions_committed = recorder.counter(
            "planner_decisions_total",
            "Terminal verdicts on changes.",
            labels={"verdict": "committed"},
        )
        self.decisions_rejected = recorder.counter(
            "planner_decisions_total",
            "Terminal verdicts on changes.",
            labels={"verdict": "rejected"},
        )
        self.turnaround = recorder.histogram(
            "service_turnaround_minutes",
            "Submission-to-decision turnaround.",
        )


class PlannerView:
    """Read-only view strategies use to pick builds."""

    def __init__(self, planner: "PlannerEngine") -> None:
        self._planner = planner

    @property
    def pending(self) -> List[Change]:
        """Pending changes in submission order."""
        return list(self._planner.conflict_graph)

    @property
    def decided(self) -> Mapping[ChangeId, bool]:
        """Decided change ids -> committed?"""
        return self._planner.decided

    @property
    def records(self) -> Mapping[ChangeId, ChangeRecord]:
        """Every submitted change's record; ``records[c].ancestors`` is
        ``c``'s conflicting predecessors."""
        return self._planner.records

    @property
    def changes_by_id(self) -> Mapping[ChangeId, Change]:
        return self._planner.all_changes

    def running_keys(self) -> Set[BuildKey]:
        return set(self._planner.running)

    def decisive_key(self, change_id: ChangeId) -> Optional[BuildKey]:
        """The build that settles a pending change, or ``None`` while one
        of its ancestors is undecided."""
        return self._planner.decisive_key(change_id)

    def conflict_degree(self, change_id: ChangeId) -> int:
        """Number of pending changes this one conflicts with (any order)."""
        return len(self._planner.conflict_graph.neighbors(change_id))


class PlannerEngine:
    """Shared orchestration: conflict graph (the pending queue) + worker
    count + decisions."""

    def __init__(
        self,
        strategy,
        controller: BuildController,
        workers: int,
        conflict_predicate: Callable[[Change, Change], bool],
        preemption_grace: float = 0.0,
        recorder: Recorder = NULL_RECORDER,
        conflict_candidates: Optional[
            Callable[[Change, Sequence[Change]], Optional[Iterable[ChangeId]]]
        ] = None,
    ) -> None:
        """``workers``: the build fleet's size.  Workers are
        interchangeable — a build completes at dispatch time plus its
        duration whichever one runs it — so the fleet is a count, and at
        most that many builds run at once.

        ``preemption_grace``: a running build within this many minutes
        of completion is never aborted even when deselected — the paper's
        section-10 build-preemption refinement ("if a build is near its
        completion, it might be beneficial to continue running its build
        steps, instead of preemptively aborting").  0 disables it.

        ``recorder``: an optional :class:`~repro.obs.recorder.Recorder`
        for the planner's metrics (its trace is folded from the service's
        lifecycle records); the default no-op recorder keeps every
        instrumentation site to a falsy branch.  The strategy is bound to
        the same one.

        ``conflict_candidates``: given a new change and the pending ones
        in submit order, the ids ``conflict_predicate`` could answer
        ``True`` for, or ``None`` for all of them (the analyzer's
        :meth:`~repro.conflict.analyzer.ConflictAnalyzer.conflict_candidates`).
        Without it — label mode, and the reference the identity tests
        compare against — every submission is checked against every
        pending change."""
        if workers <= 0:
            raise ValueError("worker capacity must be positive")
        if preemption_grace < 0:
            raise ValueError("preemption_grace must be non-negative")
        self.preemption_grace = preemption_grace
        self.strategy = strategy
        self.controller = controller
        self.workers = workers
        #: Builds dispatched and neither finished nor aborted, in dispatch
        #: order.
        self.running: Dict[BuildKey, BuildRecord] = {}
        strategy.bind_recorder(recorder)
        self._conflict_candidates = conflict_candidates
        #: The pending changes, in submission order, and their conflicts.
        self.conflict_graph = ConflictGraph(conflict_predicate)
        self.decided: Dict[ChangeId, bool] = {}
        #: Every submitted change's lifecycle, in submission order: a
        #: change's position here is its sequence number.
        self.records: Dict[ChangeId, ChangeRecord] = {}
        self.all_changes: Dict[ChangeId, Change] = {}
        self.builds: Dict[BuildKey, BuildRecord] = {}
        self._builds_by_change: Dict[ChangeId, List[BuildKey]] = {}
        #: Per pending change, the entries of its ancestor list not yet
        #: decided.
        self._undecided: Dict[ChangeId, int] = {}
        #: Pending changes with no undecided ancestor: their decisive key
        #: and ancestor set, memoised when the count reached zero.
        self._ready: Dict[ChangeId, Tuple[BuildKey, FrozenSet[ChangeId]]] = {}
        self.stats = PlannerStats()
        recorder.expose(self.stats)
        self._view = PlannerView(self)
        self._decision_log: List[Decision] = []
        self._metrics = _PlannerMetrics(recorder) if recorder.enabled else None
        #: Applied reorders, for the state fingerprint and the snapshot.
        self.reorders_applied = 0
        #: Epochs that started or aborted builds and are not yet resolved,
        #: in plan order (which is dispatch order).
        self._unresolved: List[Epoch] = []

    # -- submission ---------------------------------------------------------

    def submit(self, change: Change, now: float) -> ChangeRecord:
        """Register a freshly submitted change as pending."""
        if change.change_id in self.records:
            raise ValueError(f"change {change.change_id} already submitted")
        record = ChangeRecord(change=change, enqueued_at=now)
        self.records[change.change_id] = record
        self.all_changes[change.change_id] = change
        candidates = None
        if self._conflict_candidates is not None:
            candidates = self._conflict_candidates(
                change, list(self.conflict_graph)
            )
        self.conflict_graph.add(change, candidates)
        # Ancestors are the conflicting changes that were already pending;
        # submission order makes them exactly the graph's older neighbors.
        record.ancestors = self.conflict_graph.ancestors(change.change_id)
        self._track(change.change_id, record.ancestors)
        self.strategy.on_submit(change, self._view)
        return record

    def _track(self, change_id: ChangeId, ancestors: List[ChangeId]) -> None:
        """Count a pending change's undecided ancestors; at zero it is
        ready at once."""
        decided = self.decided
        count = 0
        for ancestor_id in ancestors:
            if ancestor_id not in decided:
                count += 1
        self._undecided[change_id] = count
        if not count:
            self._release(change_id)

    def reindex(self) -> None:
        """Rebuild the undecided counts and the ready memo from the
        records, for a planner whose records were written directly (a
        restored snapshot)."""
        self._undecided.clear()
        self._ready.clear()
        for change_id, record in self.records.items():
            if not record.state.is_terminal:
                self._track(change_id, record.ancestors)

    def _release(self, change_id: ChangeId) -> None:
        """Memoise the decisive key of a change whose ancestors are all
        decided.  Its ancestor list cannot change while it stays ready: a
        reorder only edits lists of changes with a pending ancestor, or
        makes this one wait again."""
        ancestors = self.records[change_id].ancestors
        decided = self.decided
        committed = frozenset([a for a in ancestors if decided[a]])
        self._ready[change_id] = (
            BuildKey(change_id, committed),
            frozenset(ancestors),
        )

    # -- reordering (section 10 future work) ---------------------------------

    def reorder(self, ahead_id: ChangeId, behind_id: ChangeId) -> bool:
        """Let ``behind_id`` jump ``ahead_id`` in the conflict order.

        Both must be pending and ``ahead_id`` must currently be a
        conflicting ancestor of ``behind_id``.  After the swap the jumped
        change speculates on the jumper instead ("reorder non-independent
        changes in order to improve throughput", section 10).  Swaps that
        would create an ancestor cycle (deadlock) are refused; returns
        whether the swap was applied.
        """
        graph = self.conflict_graph
        if ahead_id not in graph or behind_id not in graph:
            return False
        behind_ancestors = self.records[behind_id].ancestors
        if ahead_id not in behind_ancestors:
            return False
        ahead_ancestors = self.records[ahead_id].ancestors
        position = behind_ancestors.index(ahead_id)
        del behind_ancestors[position]
        ahead_ancestors.append(behind_id)
        if self._ancestors_have_cycle():
            # Roll back: the swap would deadlock decisions.  Both lists
            # end up exactly as they were and the strategy is not told.
            ahead_ancestors.pop()
            behind_ancestors.insert(position, ahead_id)
            return False
        # One pending ancestor moved from ``behind``'s list to ``ahead``'s.
        self._undecided[ahead_id] += 1
        self._ready.pop(ahead_id, None)
        self._undecided[behind_id] -= 1
        if not self._undecided[behind_id]:
            self._release(behind_id)
        self.reorders_applied += 1
        self.strategy.on_reorder(ahead_id, behind_id, self._view)
        return True

    def _ancestors_have_cycle(self) -> bool:
        """Detect a cycle among *pending* changes' ancestor edges.

        Iterative DFS with an explicit stack: pending chains routinely
        exceed Python's recursion limit (a 1000-deep queue is an ordinary
        deep-queue benchmark, not a pathology).
        """
        pending_ids = set(self.conflict_graph.in_order())
        records = self.records
        state: Dict[ChangeId, int] = {}  # 0=visiting, 1=done
        for root in pending_ids:
            if root in state:
                continue
            # Stack of (node, iterator over its remaining ancestors).
            stack = [(root, iter(records[root].ancestors))]
            state[root] = 0
            while stack:
                node, ancestors_iter = stack[-1]
                advanced = False
                for ancestor in ancestors_iter:
                    if ancestor not in pending_ids:
                        continue
                    mark = state.get(ancestor)
                    if mark == 0:
                        return True  # back edge
                    if mark == 1:
                        continue
                    state[ancestor] = 0
                    stack.append((ancestor, iter(records[ancestor].ancestors)))
                    advanced = True
                    break
                if not advanced:
                    state[node] = 1
                    stack.pop()
        return False

    # -- planning -----------------------------------------------------------

    def plan(self, now: float) -> Epoch:
        """One epoch: select builds, abort stale ones, start new ones.

        Every call consults the strategy; the driver calls it once per
        event (submission, build completion, stall), never on a timer.
        An epoch that started or aborted anything waits for
        :meth:`resolve_pending`.
        """
        self.stats.plan_calls += 1
        for ahead_id, behind_id in self.strategy.propose_reorders(self._view):
            self.reorder(ahead_id, behind_id)
        selected: List[BuildKey] = self.strategy.select(self._view, self.workers)
        selected_set = set(selected)

        aborted: List[BuildKey] = []
        for key, record in list(self.running.items()):
            if key in selected_set:
                continue
            # Unresolved dispatches have no duration yet; they were
            # dispatched at the current instant, so "nearly done" can
            # never apply — fall through to the abort.
            if self.preemption_grace > 0.0 and record.execution is not None:
                remaining = record.started_at + record.execution.duration - now
                if 0.0 <= remaining <= self.preemption_grace:
                    continue  # nearly done: let it finish
            self._abort(key, now)
            aborted.append(key)

        to_start: List[BuildKey] = []
        free_budget = self.free
        for key in selected:
            if len(to_start) >= free_budget:
                break
            if key in self.running:
                continue
            existing = self.builds.get(key)
            if existing is not None and existing.done and not existing.aborted:
                continue  # result already known; never rebuild
            to_start.append(key)
        epoch = self._start_batch(to_start, now)

        # Stall guard: if the strategy selected nothing runnable while work
        # is pending, force the decisive build of the oldest pending change
        # that has one (every ancestor decided), so the system always makes
        # progress.  Without reorders that is the queue head; after one, the
        # head may wait on a change behind it.
        if not epoch.started and not self.running:
            for change in self.conflict_graph:
                key = self.decisive_key(change.change_id)
                if key is None:
                    continue
                existing = self.builds.get(key)
                if existing is None or existing.aborted or not existing.done:
                    epoch = self._start_batch([key], now)
                break
        epoch.aborted = aborted
        if epoch.started or aborted:
            epoch.queue = len(self.conflict_graph)
            epoch.busy = self.busy
            epoch.capacity = self.workers
            self._unresolved.append(epoch)
        if self._metrics is not None:
            self._record_epoch()
        return epoch

    def _record_epoch(self) -> None:
        """Set the epoch gauges (no decision lands inside a plan, so the
        queue depth is the epoch's from start to end)."""
        self._metrics.queue_depth.set(len(self.conflict_graph))
        self._metrics.workers_busy.set(self.busy)
        self._metrics.worker_utilization.set(self.busy / self.workers)

    def _start_batch(self, keys: List[BuildKey], now: float) -> Epoch:
        """Start a batch of selected builds on free workers and dispatch
        it; the epoch that holds it is returned for :meth:`plan` to
        finish.

        Everything the *selection* depends on (the running builds,
        per-change counters) is updated here; executions, step counters
        and durations arrive at :meth:`resolve_pending`.
        """
        epoch = Epoch(at=now, started=list(keys))
        if keys:
            epoch.builds = [self._register_dispatch(key, now) for key in keys]
            epoch.batch = self.controller.dispatch_batch(
                keys, self.all_changes, self.decided
            )
        return epoch

    def _register_dispatch(self, key: BuildKey, now: float) -> BuildRecord:
        """Mint the build record at dispatch time.

        Everything the next ``plan()`` can read is updated here — the
        build record, the running builds, per-change counters,
        ``builds_started`` — while the execution-derived pieces (step
        counters, duration) wait for :meth:`resolve_pending`.  A build
        already running, or one more than the workers can take, is
        refused.
        """
        if key in self.running:
            raise ValueError(f"build {key.label()} already running")
        if len(self.running) >= self.workers:
            raise NoWorkerAvailableError(key.label())
        if key not in self.builds:
            self._builds_by_change.setdefault(key.change_id, []).append(key)
        build = BuildRecord(key=key, execution=None, started_at=now)
        self.builds[key] = build
        self.running[key] = build
        record = self.records.get(key.change_id)
        if record is not None:
            record.builds_scheduled += 1
        self.stats.builds_started += 1
        return build

    def resolve_pending(self) -> List[Epoch]:
        """Merge every dispatched batch back in — the quiescent point —
        and hand over the unresolved epochs, in plan order.

        The one place executions enter the planner.  Drivers call it
        before their event loop pops anything, so the clock has not moved
        since the dispatches: completions are timed at
        ``epoch.at + duration``, and the batches merge in dispatch order,
        so the artifact cache — and with it every duration and decision —
        evolves identically whether the builds ran inline or on a backend.
        """
        epochs, self._unresolved = self._unresolved, []
        for epoch in epochs:
            if epoch.batch is None:
                continue
            epoch.executions, epoch.batch = epoch.batch(), None
            for record, execution in zip(epoch.builds, epoch.executions):
                record.execution = execution
                self.stats.steps_executed += execution.steps_executed
                self.stats.steps_cached += execution.steps_cached
                # Time a completion only for dispatches that are still
                # current: aborted or re-dispatched keys were merged for
                # their cache effects but must not produce a (duplicate)
                # event.
                if not record.aborted and self.builds.get(record.key) is record:
                    epoch.live.append(record)
        return epochs

    def _abort(self, key: BuildKey, now: float) -> None:
        record = self.running.pop(key)
        record.aborted = True
        self.stats.wasted_minutes += max(0.0, now - record.started_at)
        change_record = self.records.get(key.change_id)
        if change_record is not None:
            change_record.builds_aborted += 1
        self.stats.builds_aborted += 1

    # -- completion & decisions -----------------------------------------------

    def complete(self, key: BuildKey, now: float) -> List[Decision]:
        """Record a finished build and decide every change it settles."""
        record = self.builds.get(key)
        if record is None or record.aborted or record.done:
            return []  # stale completion (build was aborted meanwhile)
        if record.execution is None:
            raise PlannerError(
                f"build {key.label()} completed before its dispatch resolved"
            )
        del self.running[key]
        record.completed_at = now
        self.stats.builds_completed += 1
        self.stats.build_minutes += record.execution.duration
        if self._metrics is not None:
            self._metrics.build_duration.observe(record.execution.duration)

        change_record = self.records.get(key.change_id)
        if change_record is not None and not change_record.state.is_terminal:
            if record.execution.success:
                change_record.speculations_succeeded += 1
            else:
                change_record.speculations_failed += 1
            self.strategy.on_build_finished(
                key, record.execution.success, self._view
            )

        decisions: List[Decision] = []
        custom = self.strategy.interpret(
            key, record.execution.success, self._view, now
        )
        if custom is not None:
            for decision in custom:
                self._apply_decision(decision)
                decisions.append(decision)
        decisions.extend(self.decide_ready(now))
        return decisions

    def decisive_key(self, change_id: ChangeId) -> Optional[BuildKey]:
        """The build that settles a pending ``change_id``, once all its
        ancestors are decided (``None`` before)."""
        ready = self._ready.get(change_id)
        return None if ready is None else ready[0]

    def _usable_build(
        self,
        change_id: ChangeId,
        decisive: BuildKey,
        ancestors: FrozenSet[ChangeId],
    ) -> Optional[BuildRecord]:
        """A finished build whose result decides ``change_id``, whose
        ancestor set is ``ancestors``.

        The decisive key itself always qualifies.  So does any finished
        build whose assumed set (a) covers exactly the committed conflicting
        ancestors and (b) otherwise stacks only *committed* changes:
        committed extras are individually healthy and, not being conflict
        ancestors, cannot interact with the subject — the stack is
        equivalent to HEAD plus the change.  Optimistic (Zuul-style) chains
        rely on this rule to convert their all-ahead builds into decisions.
        """
        builds = self.builds
        exact = builds.get(decisive)
        if exact is not None and exact.done and not exact.aborted:
            return exact
        decided = self.decided
        for key in self._builds_by_change.get(change_id, ()):
            build = builds.get(key)
            if build is None or not build.done or build.aborted:
                continue
            if key.assumed & ancestors != decisive.assumed:
                continue
            for extra in key.assumed - ancestors:
                if not decided.get(extra, False):
                    break
            else:
                return build
        return None

    def decide_ready(self, now: float) -> List[Decision]:
        """Commit/reject every ready change whose decisive build has
        finished, in passes until one decides nothing.

        Every completion ends with this step; an event loop that stalled
        calls it too, since a reorder can leave a change ready whose
        decisive build has already finished, and no completion will come
        to decide it.

        A pass visits the ready changes in queue position.  A change a
        decision releases joins the pass when it sits behind the decided
        one and waits for the next pass otherwise; every ready change is
        re-checked on every pass, because a committed non-ancestor can make
        a finished build of it usable (the committed-extras rule).
        """
        decisions: List[Decision] = []
        ready = self._ready
        position = self.conflict_graph.positions
        progressed = True
        while progressed and ready:
            progressed = False
            visit = [(position[change_id], change_id) for change_id in ready]
            heapq.heapify(visit)
            while visit:
                at, change_id = heapq.heappop(visit)
                key, ancestors = ready[change_id]
                build = self._usable_build(change_id, key, ancestors)
                if build is None:
                    continue
                decision = Decision(
                    change_id=change_id,
                    committed=build.execution.success,
                    at=now,
                    reason=build.execution.failure_reason
                    if not build.execution.success
                    else "decisive build passed",
                )
                for released in self._apply_decision(decision):
                    if position[released] > at:
                        heapq.heappush(visit, (position[released], released))
                decisions.append(decision)
                progressed = True
        return decisions

    def _settle(self, change_id: ChangeId) -> List[ChangeId]:
        """Count a decision against its pending dependents; returns the
        ones it left with no undecided ancestor.  Runs while the decided
        change is still in the conflict graph, whose edges name them."""
        self._ready.pop(change_id, None)
        neighbors = self.conflict_graph.neighbors(change_id)
        if self._undecided.pop(change_id):
            # Decided ahead of an ancestor (a strategy's own verdict):
            # its pending ancestors are neighbors, not dependents.
            neighbors.difference_update(self.records[change_id].ancestors)
        undecided = self._undecided
        released: List[ChangeId] = []
        for dependent in neighbors:
            undecided[dependent] -= 1
            if not undecided[dependent]:
                self._release(dependent)
                released.append(dependent)
        return released

    def _apply_decision(self, decision: Decision) -> List[ChangeId]:
        """Record a verdict; returns the changes it made ready."""
        change_id = decision.change_id
        record = self.records[change_id]
        if record.state.is_terminal:
            return []
        if decision.committed:
            record.mark_committed(decision.at, decision.reason or "committed")
        else:
            record.mark_rejected(decision.at, decision.reason or "rejected")
        self.decided[change_id] = decision.committed
        released = self._settle(change_id)
        self.conflict_graph.remove(change_id)
        self._decision_log.append(decision)
        if self._metrics is not None:
            if decision.committed:
                self._metrics.decisions_committed.inc()
            else:
                self._metrics.decisions_rejected.inc()
            self._metrics.turnaround.observe(record.turnaround)
        change = self.all_changes[change_id]
        if decision.committed:
            self.controller.on_commit(change, self.all_changes)
        self.strategy.on_decision(change, decision, self._view)
        return released

    # -- inspection ---------------------------------------------------------

    @property
    def view(self) -> PlannerView:
        return self._view

    def decisions(self) -> List[Decision]:
        return list(self._decision_log)

    def pending_count(self) -> int:
        return len(self.conflict_graph)

    @property
    def busy(self) -> int:
        """Workers running a build."""
        return len(self.running)

    @property
    def free(self) -> int:
        return self.workers - len(self.running)

    def busy_minutes(self, now: float) -> float:
        """Worker minutes spent building up to ``now``: finished builds'
        durations, aborted builds' partial runs and the running builds'
        elapsed time."""
        stats = self.stats
        total = stats.build_minutes + stats.wasted_minutes
        for record in self.running.values():
            total += max(0.0, now - record.started_at)
        return total

