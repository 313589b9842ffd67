"""Build controllers: outcome and duration of one speculative build.

Two fidelities behind one interface:

* :class:`LabelBuildController` — reads ground-truth labels and sampled
  durations; used by the large evaluation sweeps.  Minimal-build-step
  elimination shows up as a cost model: with elimination on, the build for
  ``H ⊕ S ⊕ C`` costs only ``C``'s own steps (prior builds covered ``S``);
  with it off, stacked changes' steps re-run and the build costs more.
* :class:`FullStackBuildController` — merges patches for real, loads
  build graphs, and executes synthetic steps through
  :class:`~repro.buildsys.executor.BuildExecutor`.  Elimination falls out
  of the shared :class:`~repro.buildsys.cache.ArtifactCache`: steps whose
  target hash was already built (by a parent speculation or an earlier
  epoch) are cache hits, and the duration model charges only executed
  steps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.executor import BuildContext, BuildExecutor, BuildReport
from repro.buildsys.hashing import DigestMemo
from repro.buildsys.steps import StepResult, StepSpec
from repro.changes.change import Change
from repro.changes.truth import stack_outcome
from repro.errors import (
    BuildSystemError,
    ParallelExecutionError,
    PatchConflictError,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import metric_field
from repro.types import BuildKey, ChangeId, TargetName
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class BuildExecution:
    """What running one build costs and yields."""

    key: BuildKey
    success: bool
    duration: float
    steps_executed: int = 0
    steps_cached: int = 0
    failure_reason: str = ""
    #: Targets the build covered, in build order (empty for label-mode
    #: builds and merge conflicts).
    targets_built: Tuple[TargetName, ...] = ()
    #: The traced worker response the build came back in, whose
    #: wall-clock step spans the recorder renders under its build span.
    worker: object = field(default=None, compare=False, repr=False)


class BuildController(abc.ABC):
    """Interface the planner uses to run builds.

    The planner only ever *dispatches* a batch and later *resolves* it
    (section 6: builds run asynchronously and report back): a dispatch
    returns a handle, and calling the handle yields the batch's
    executions.  A controller that has nowhere else to run them inherits
    the default below, which runs the batch at dispatch.
    """

    @abc.abstractmethod
    def execute(
        self, key: BuildKey, changes_by_id: Mapping[ChangeId, Change]
    ) -> BuildExecution:
        """Determine the build's outcome and duration.

        ``changes_by_id`` must contain the build's change and every change
        in its assumed set.
        """

    def execute_batch(
        self,
        keys: Sequence[BuildKey],
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
    ) -> List[BuildExecution]:
        """Execute one epoch's selected builds, results in selection order.

        Runs each build serially through :meth:`execute`.  ``decided`` is
        the planner's verdict map; only a controller that stacks patches
        onto the mainline reads it (see
        :meth:`FullStackBuildController.execute`).
        """
        return [self.execute(key, changes_by_id) for key in keys]

    def dispatch_batch(
        self,
        keys: Sequence[BuildKey],
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
    ) -> Callable[[], List[BuildExecution]]:
        """Start one epoch's builds; the returned handle yields their
        executions in selection order.

        ``decided`` is passed on to :meth:`execute_batch`.
        """
        executions = self.execute_batch(keys, changes_by_id, decided)
        return lambda: executions

    def on_commit(
        self, change: Change, changes_by_id: Mapping[ChangeId, Change]
    ) -> None:
        """Called by the planner when ``change`` commits; nothing to land
        for a controller without a repository."""

    def attach_backend(self, backend, step_wall_seconds: float) -> None:
        """Fan future batches out through ``backend``; a controller whose
        builds are not hermetic worker requests has no backend form."""
        raise ParallelExecutionError(
            f"{type(self).__name__} cannot run builds on a build backend"
        )


class LabelBuildController(BuildController):
    """Ground-truth outcomes with a step-elimination cost model."""

    #: The fraction of each stacked change's duration that re-runs when
    #: elimination is disabled (the paper's build controller "eliminates
    #: build steps that are being executed by prior builds"; turning that
    #: off makes deep speculation proportionally costlier).
    STACKING_OVERHEAD = 0.35
    #: Minutes a build of a change with no sampled duration takes.
    DEFAULT_DURATION = 30.0

    def __init__(self, step_elimination: bool = True) -> None:
        self.step_elimination = step_elimination

    def _duration_of(self, change: Change) -> float:
        if change.build_duration is not None:
            return change.build_duration
        return self.DEFAULT_DURATION

    def execute(
        self, key: BuildKey, changes_by_id: Mapping[ChangeId, Change]
    ) -> BuildExecution:
        change = changes_by_id[key.change_id]
        assumed = [changes_by_id[cid] for cid in sorted(key.assumed)]
        success = stack_outcome(assumed + [change])
        duration = self._duration_of(change)
        if not self.step_elimination:
            duration += self.STACKING_OVERHEAD * sum(
                self._duration_of(other) for other in assumed
            )
        return BuildExecution(
            key=key,
            success=success,
            duration=duration,
            failure_reason="" if success else "ground-truth failure",
        )


@dataclass
class ExecutorReuseStats:
    """Incremental-execution counters."""

    #: Root contexts built from scratch — O(repo) graph load + hashing.
    base_context_loads: int = 0
    #: Builds answered from a memoized base context.
    base_context_reuses: int = metric_field(
        "executor_base_context_reused_total",
        "Builds served from a memoized per-base build context.",
    )
    #: Base contexts advanced across a commit in O(delta) instead of reloaded.
    base_context_advances: int = 0
    #: Merged ``H ⊕ S ⊕ C`` contexts reused instead of derived.  None is
    #: kept between builds, so this stays 0; the field is read by name.
    prefix_hits: int = 0
    #: Merged contexts derived, one ``derive_stack`` per build.
    prefix_misses: int = 0
    #: Target digests recomputed by derivations: each derive's dirty
    #: closure.  Landed patches are not stacked, so only digests that can
    #: move are counted.
    targets_rehashed: int = 0

    @property
    def prefix_hit_rate(self) -> float:
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0


class FullStackBuildController(BuildController):
    """Real builds: merge patches, load graphs, execute synthetic steps.

    An executed step costs ``STEP_MINUTES`` of simulated build duration; a
    cached one costs ``CACHED_STEP_MINUTES`` (near zero).  The
    ``base_commit_id`` pins the HEAD the controller merges onto; the
    planner refreshes it as changes land.

    A build is section 6's delta build of ``H ⊕ S ⊕ C`` over target
    hashes, and it reuses work across builds:

    * the base side (graph + Algorithm-1 hashes) is a
      :class:`~repro.buildsys.executor.BuildContext` memoized for the
      current mainline head and *advanced* in O(delta) when a change
      lands (:meth:`base_context`, which the service's conflict analyzer
      borrows too);
    * a build of ``H ⊕ S ⊕ C`` folds its whole stack onto that context in
      one :meth:`~repro.buildsys.executor.BuildContext.derive_stack`: one
      copy-on-write overlay and one rehash of the union's dirty
      reverse-dependency closure, whatever ``|S|`` is.  No merged state is
      kept between builds; the paper's tree-structured step elimination
      lives in the artifact cache alone;
    * ``S`` is the key's assumed changes that have not landed
      (:meth:`_stack`): a landed one is already in ``H``, and re-applying
      it would rehash its closure for nothing — or fail to apply once a
      later commit deleted or re-edited one of its paths.

    Outcomes, step counts, durations, and target order are bit-identical
    to building both snapshots from scratch (the reference lives in
    ``tests/oracles.py``; hypothesis property tests enforce it).
    """

    #: Simulated minutes an executed step costs.
    STEP_MINUTES = 1.0
    #: Simulated minutes a step the artifact cache eliminated costs; also
    #: the floor of any build's duration.
    CACHED_STEP_MINUTES = 0.01

    def __init__(
        self,
        repo: Repository,
        cache: Optional[ArtifactCache] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self._repo = repo
        self.recorder = recorder
        self.executor = BuildExecutor(cache, recorder=recorder)
        self.base_commit_id = repo.head()
        self.stats = ExecutorReuseStats()
        recorder.expose(self.stats)
        #: The one memoized base context, for ``base_commit_id`` — only
        #: :meth:`on_commit` moves the head, and it advances this too.
        self._base: Optional[BuildContext] = None
        #: Target digests shared by every context this controller loads or
        #: derives; a generation ends each time the base advances.
        self._digest_memo = DigestMemo()
        # Parallel-backend seam (see repro.parallel): None means every
        # batch runs inline, at dispatch, through execute_batch().
        self._backend = None
        #: Synthetic wall cost per hermetic step, forwarded to workers.
        self.step_wall_seconds = 0.0

    def on_commit(
        self, change: Change, changes_by_id: Mapping[ChangeId, Change]
    ) -> None:
        """Land a decided change on the mainline and re-pin the base.

        Called by the planner exactly when the change's decisive build
        succeeded, so the mainline stays green by construction.  The
        memoized base context advances with the commit: the new head's
        context is the committed change's patch folded onto the old one,
        never a from-scratch reload.
        """
        if change.patch is None:
            raise ValueError(f"change {change.change_id} carries no patch")
        # No context is the new head's until the advance below succeeds.
        old_ctx, self._base = self._base, None
        self._repo.commit_to_mainline(
            change.patch,
            message=change.description or change.change_id,
            author=change.developer_id,
            green=True,
        )
        self.base_commit_id = self._repo.head()
        if old_ctx is not None:
            # commit_to_mainline just applied this patch to the same
            # snapshot, so the derivation cannot conflict.
            advanced = self._derive_stack(old_ctx, (change.patch,))
            self.stats.base_context_advances += 1
            self._base = advanced.as_root()

    # -- base context ---------------------------------------------------------

    def base_context(self) -> BuildContext:
        """The current base commit's context, loaded at most once per
        controller: commits advance it.

        Reading it is not a build — the service's conflict analyzer
        borrows its base here, and backend requests ship its snapshot,
        one plain dict per head — so it may count a load, never a reuse.
        """
        context = self._base
        if context is None:
            context = BuildContext.load(
                self._repo.snapshot(self.base_commit_id).to_dict(),
                self._digest_memo,
            )
            self.stats.base_context_loads += 1
            self._base = context
        return context

    def _build_base_context(self) -> BuildContext:
        """:meth:`base_context` on behalf of a build: answering from the
        memoized context counts as a reuse."""
        context = self._base
        if context is None:
            return self.base_context()
        self.stats.base_context_reuses += 1
        return context

    def _derive_stack(
        self, context: BuildContext, patches: Sequence[Patch]
    ) -> BuildContext:
        """Fold a patch stack onto a context.

        Raises PatchConflictError when a patch does not apply and
        BuildSystemError when the stacked BUILD files do not load."""
        derived = context.derive_stack(patches)
        self.stats.targets_rehashed += derived.rehashed
        return derived

    # -- parallel backend seam ----------------------------------------------

    def attach_backend(self, backend, step_wall_seconds: float) -> None:
        """Fan future batches out through ``backend`` (a
        :class:`repro.parallel.backend.ProcessBuildBackend`).

        ``step_wall_seconds`` is the synthetic wall cost per hermetic step
        forwarded to workers.
        """
        self._backend = backend
        self.step_wall_seconds = step_wall_seconds

    def detach_backend(self) -> None:
        """Back to running batches inline; a batch already dispatched
        keeps its backend in its handle."""
        self._backend = None

    def _stack(
        self,
        key: BuildKey,
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]],
    ) -> List[Change]:
        """The changes a build of ``key`` stacks onto the base head.

        Its assumed changes that have not landed — ``decided`` (the
        planner's verdict map) does not say ``True`` for them — in
        sorted-id order, then the change itself.  A landed change's patch
        is already in the head; applying it again is at best an identity
        and at worst a false merge conflict (its deleted path is gone, or
        a later commit re-edited its path).
        """
        landed = decided or {}
        stack = [
            changes_by_id[cid]
            for cid in sorted(key.assumed)
            if not landed.get(cid, False)
        ]
        stack.append(changes_by_id[key.change_id])
        for change in stack:
            if change.patch is None:
                raise ValueError(f"change {change.change_id} carries no patch")
        return stack

    def _build_request(
        self,
        build_id: int,
        key: BuildKey,
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
        traced: bool = False,
    ):
        from repro.parallel.payload import BuildRequest

        *assumed, change = self._stack(key, changes_by_id, decided)
        return BuildRequest(
            build_id=build_id,
            change_id=key.change_id,
            base_commit_id=self.base_commit_id,
            base_snapshot=self.base_context().snapshot,
            assumed=tuple((other.change_id, other.patch) for other in assumed),
            patch=change.patch,
            step_wall_seconds=self.step_wall_seconds,
            traced=traced,
        )

    def _merge_response(self, key: BuildKey, response) -> BuildExecution:
        """Fold one worker response back into the parent — the quiescent
        point where determinism is re-established.

        Workers return *raw* step outcomes; replaying them here, in
        selection order, through the parent's own artifact cache decides
        canonically which steps count as executed vs. eliminated.  Step
        outcomes are pure functions of the merged snapshot, so the
        reconstructed report (and thus duration, counters, and every
        downstream decision) is bit-identical to what the serial oracle
        computes.

        A traced response rides on the execution (``worker``); the trace
        renders its wall-clock step spans under that build's span.
        """
        if response is None or response.error is not None:
            reason = "no response" if response is None else response.error
            raise ParallelExecutionError(
                f"worker failed for {key.label()}: {reason}"
            )
        unbuildable = None
        if response.merge_conflict is not None:
            unbuildable = f"merge conflict: {response.merge_conflict}"
        elif response.graph_error is not None:
            unbuildable = f"build graph error: {response.graph_error}"
        if unbuildable is not None:
            execution = self._unbuildable(key, unbuildable)
        else:
            cache = self.executor.cache
            report = BuildReport()
            report.targets_built.extend(response.targets)
            for step in response.steps:
                result = cache.get(step.digest, step.kind)
                if result is None:
                    result = StepResult(
                        StepSpec(step.target, step.kind), step.passed, step.log
                    )
                    cache.put(step.digest, step.kind, result)
                report.append(result)
            self.executor.record_report(report)
            execution = self._execution_from_report(key, report)
        if response.step_spans:
            execution = replace(execution, worker=response)
        return execution

    def dispatch_batch(
        self,
        keys: Sequence[BuildKey],
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
    ) -> Callable[[], List[BuildExecution]]:
        """Start one epoch's builds without waiting for them.

        Without a backend the batch runs now through :meth:`execute_batch`.
        With one, requests are serialized against the *current* base head
        (no mainline commit can land between a dispatch and its resolution
        — resolutions happen before the event loop pops anything) and
        shipped to the backend.  Either way the returned handle yields the
        executions, at the driver's next quiescent point.

        While a recorder is attached, each request asks its worker to
        capture per-step wall spans.
        """
        if self._backend is None:
            return super().dispatch_batch(keys, changes_by_id, decided)
        requests = [
            self._build_request(
                position,
                key,
                changes_by_id,
                decided,
                traced=self.recorder.enabled,
            )
            for position, key in enumerate(keys)
        ]
        token = self._backend.submit_batch(requests)
        return partial(self._collect, self._backend, token, list(keys))

    def _collect(
        self, backend, token, keys: List[BuildKey]
    ) -> List[BuildExecution]:
        """Wait for one shipped batch and merge it, in selection order.

        Handles are called in dispatch order, so the parent's artifact
        cache evolves exactly as running the batches inline at dispatch
        does — the property the bit-identity oracle tests pin.
        """
        responses = backend.collect(token)
        if len(responses) != len(keys):
            raise ParallelExecutionError(
                f"backend returned {len(responses)} responses "
                f"for {len(keys)} requests"
            )
        return [
            self._merge_response(key, response)
            for key, response in zip(keys, responses)
        ]

    # -- execution ----------------------------------------------------------

    def execute_batch(
        self,
        keys: Sequence[BuildKey],
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
    ) -> List[BuildExecution]:
        """One epoch's builds, run inline in selection order — what
        :meth:`dispatch_batch` does when no backend is attached."""
        return [self.execute(key, changes_by_id, decided) for key in keys]

    def execute(
        self,
        key: BuildKey,
        changes_by_id: Mapping[ChangeId, Change],
        decided: Optional[Mapping[ChangeId, bool]] = None,
    ) -> BuildExecution:
        """Build ``key`` onto the base head.

        ``decided`` is the planner's verdict map: an assumed change it
        marks committed has landed and is not stacked again
        (:meth:`_stack`).  Without it every assumed change is stacked.
        """
        stack = self._stack(key, changes_by_id, decided)
        base_context = self._build_base_context()
        # Merge in sorted-id order, the change last; a textual conflict
        # fails the build the same way a failed merge fails it in
        # production, and so does a stack whose BUILD files do not load
        # (a syntax error, an unknown dep, a cycle — possibly one only the
        # stacked changes form together).
        try:
            merged = self._derive_stack(
                base_context, [change.patch for change in stack]
            )
        except PatchConflictError as exc:
            return self._unbuildable(key, f"merge conflict: {exc}")
        except BuildSystemError as exc:
            return self._unbuildable(key, f"build graph error: {exc}")
        self.stats.prefix_misses += 1
        report = self.executor.build_between(
            base_context, merged, stop_on_failure=True
        )
        return self._execution_from_report(key, report)

    def _unbuildable(self, key: BuildKey, reason: str) -> BuildExecution:
        """The failed build of a stack that never reached a step."""
        return BuildExecution(
            key=key,
            success=False,
            duration=self.STEP_MINUTES,
            failure_reason=reason,
        )

    def _execution_from_report(self, key: BuildKey, report) -> BuildExecution:
        duration = (
            report.steps_executed * self.STEP_MINUTES
            + report.steps_cached * self.CACHED_STEP_MINUTES
        )
        failure = report.first_failure()
        return BuildExecution(
            key=key,
            success=report.success,
            duration=max(duration, self.CACHED_STEP_MINUTES),
            steps_executed=report.steps_executed,
            steps_cached=report.steps_cached,
            failure_reason="" if failure is None else failure.log,
            targets_built=tuple(report.targets_built),
        )
