"""Risk-aware speculative batching with culprit bisection.

SubmitQueue builds one speculation path per pending change, so at high
arrival rates the worker pool saturates and throughput flat-lines (the
Figure 12 ceiling).  This strategy extends SubmitQueue selection with
*speculative batches*: pending changes whose conflicting ancestors are
all decided and that the section-7.2 predictor scores as jointly
low-risk (per-member ``p_success`` confidence, pairwise ``p_conflict``
gating, a joint-success floor — :mod:`repro.speculation.batching`) are
stacked into one build whose value is the sum of the members'
commit-probability mass against a single build cost.

The per-change shippable-commit guarantee is preserved, unlike the
Chromium-style :class:`~repro.strategies.batch.BatchStrategy` the paper
critiques:

* a passing batch commits each member *individually*, in submission
  order (the passing-prefix order bisection also preserves);
* a failing batch is deterministically halved
  (:func:`~repro.speculation.batching.bisect_halves`) into sub-batches
  that rebuild next epoch; halves shrink strictly, so the recursion
  terminates at singletons, where the planner's ordinary decisive-build
  rule isolates each culprit exactly while every innocent member still
  lands.

Batch members never conflict with each other: eligibility requires every
conflicting ancestor decided, and two pending changes that conflict
always have one as the other's ancestor.  A batch build is therefore the
union of independent dirty cones — exactly the hardware-utilization win
the batching literature reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import metric_field
from repro.planner.planner import Decision, PlannerView
from repro.predictor.predictors import Predictor
from repro.speculation.batching import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_PAIR_CONFLICT,
    DEFAULT_MEMBER_CONFIDENCE,
    DEFAULT_MIN_JOINT_SUCCESS,
    bisect_halves,
)
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey, ChangeId


@dataclass
class RiskBatchStats:
    """Batch-protocol counters for benches and ablation tables; the
    ``metric_field`` ones are exposed on the strategy's recorder."""

    #: Batch builds (fresh or bisection sub-batch) that passed whole.
    batches_landed: int = metric_field(
        "risk_batches_landed_total",
        "Speculative batch builds that passed whole.",
    )
    #: Members committed via a passing batch build.
    members_committed: int = metric_field(
        "risk_batch_members_committed_total",
        "Changes committed via a passing batch build.",
    )
    #: Batch builds that failed and were split into halves.
    bisections: int = metric_field(
        "risk_batch_bisections_total",
        "Failed batch builds split into bisection halves.",
    )
    #: Deepest bisection level reached (0 = a fresh batch).
    deepest_bisection: int = 0


class RiskBatchStrategy(SubmitQueueStrategy):
    """SubmitQueue + jointly-low-risk batches with culprit bisection."""

    name = "SubmitQueue+risk-batch"

    def __init__(
        self,
        predictor: Predictor,
        batch_size: int = DEFAULT_BATCH_SIZE,
        member_confidence: float = DEFAULT_MEMBER_CONFIDENCE,
        max_pair_conflict: float = DEFAULT_MAX_PAIR_CONFLICT,
        min_joint_success: float = DEFAULT_MIN_JOINT_SUCCESS,
    ) -> None:
        super().__init__(predictor)
        if batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        for knob, value in (
            ("member_confidence", member_confidence),
            ("max_pair_conflict", max_pair_conflict),
            ("min_joint_success", min_joint_success),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1]")
        self.batch_size = batch_size
        self.member_confidence = member_confidence
        self.max_pair_conflict = max_pair_conflict
        self.min_joint_success = min_joint_success
        self.batch_stats = RiskBatchStats()
        #: Batch builds scheduled by the last selection round:
        #: key -> (ordered members, bisection depth).  Rebuilt every epoch.
        self._groups: Dict[BuildKey, Tuple[Tuple[ChangeId, ...], int]] = {}
        #: Bisection halves awaiting (re)builds, FIFO, with their depth.
        self._bisect_queue: List[Tuple[Tuple[ChangeId, ...], int]] = []
        #: Members of failed batches: excluded from fresh batches so the
        #: bisection protocol (not regrouping) isolates the culprit.
        self._no_batch: Set[ChangeId] = set()
        #: Batch/bisect resolutions awaiting the journal drain.
        self._journal_events: List[Dict[str, object]] = []
        self._recorder: Recorder = NULL_RECORDER

    def bind_recorder(self, recorder: Recorder) -> None:
        super().bind_recorder(recorder)
        self._recorder = recorder
        recorder.expose(self.batch_stats)

    # -- batch formation ------------------------------------------------------

    def _eligible(
        self, change_id: ChangeId, view: PlannerView, riding: Set[ChangeId]
    ) -> bool:
        """May this pending change join a fresh batch?

        All conflicting ancestors decided (so the batch build is decisive
        for the member — and, structurally, members never conflict with
        each other), not already riding in a scheduled batch, and not a
        member of a failed batch mid-bisection.
        """
        if change_id in riding or change_id in self._no_batch:
            return False
        decided = view.decided
        return all(
            ancestor in decided
            for ancestor in view.records[change_id].ancestors
        )

    def _group_key(
        self, members: Sequence[ChangeId], view: PlannerView
    ) -> BuildKey:
        """The build key for a batch of ``members`` (submission order).

        The assumed set stacks the non-final members plus every member's
        *committed* conflicting ancestors — the same ancestors a decisive
        build would re-stack, so label-mode controllers see the conflicts
        that already landed and full-stack controllers re-apply patches
        the mainline merge tolerates.
        """
        assumed: Set[ChangeId] = set(members[:-1])
        decided = view.decided
        for member in members:
            for ancestor in view.records[member].ancestors:
                if decided.get(ancestor, False):
                    assumed.add(ancestor)
        return BuildKey(members[-1], frozenset(assumed))

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        selected: List[BuildKey] = []
        seen: Set[BuildKey] = set()
        riding: Set[ChangeId] = set()
        pending = view.pending
        pending_ids = {change.change_id for change in pending}

        # 0. In-flight batch builds keep their registration and stay
        # selected: replans happen on every arrival, and dropping a
        # running batch's group entry here would make its completion
        # uninterpretable (the planner would fall back to the default
        # decisive rule and strand the riding members).  Entries whose
        # build is no longer running (resolved, or aborted with members
        # decided elsewhere) are discarded — fresh planning below regroups
        # any still-pending members.
        running = view.running_keys()
        survivors = {
            key: entry
            for key, entry in self._groups.items()
            if key in running
            and all(cid in pending_ids for cid in entry[0])
        }
        self._groups = dict(survivors)
        surviving_members = {entry[0] for entry in survivors.values()}
        for key, (members, _depth) in survivors.items():
            riding.update(members)
            if key not in seen and len(selected) < budget:
                seen.add(key)
                selected.append(key)

        # 1. Live bisection sub-batches first: they carry failed-batch
        # members whose turnaround is already elevated.  Decided members
        # drop out; a half reduced to one member builds through the
        # planner's ordinary decisive rule (exact culprit isolation).
        open_halves: List[Tuple[Tuple[ChangeId, ...], int]] = []
        for members, depth in self._bisect_queue:
            live = tuple(cid for cid in members if cid in pending_ids)
            if not live:
                continue
            open_halves.append((live, depth))
            if live in surviving_members:
                continue  # this half's build is already in flight
            if len(live) == 1:
                key = self._group_key(live, view)  # == the decisive key
            else:
                key = self._group_key(live, view)
                self._groups[key] = (live, depth)
                riding.update(live)
            if key not in seen and len(selected) < budget:
                seen.add(key)
                selected.append(key)
        self._bisect_queue = open_halves

        # 2. Fresh jointly-low-risk batches over the eligible pending set.
        # Contention-gated: with free capacity for every pending change,
        # one-speculation-per-change (plain SubmitQueue) decides each
        # member faster than any batch could, so batches only form when
        # the queue is deeper than the worker pool — the saturated regime
        # where trading per-member latency for per-build throughput wins.
        if len(selected) < budget and len(pending) > budget:
            candidates = [
                change.change_id
                for change in pending
                if self._eligible(change.change_id, view, riding)
            ]
            plans = self.engine.plan_risk_batches(
                candidates,
                pending,
                view.records,
                view.changes_by_id,
                batch_size=self.batch_size,
                member_confidence=self.member_confidence,
                max_pair_conflict=self.max_pair_conflict,
                min_joint_success=self.min_joint_success,
            )
            for plan in plans:
                if len(selected) >= budget:
                    break
                key = self._group_key(plan.members, view)
                if key in seen:
                    continue
                self._groups[key] = (plan.members, 0)
                riding.update(plan.members)
                seen.add(key)
                selected.append(key)

        # 3. Ordinary SubmitQueue speculation fills the remaining budget;
        # riding members' fates are decided by their batch build.
        if len(selected) < budget:
            headroom = budget - len(selected) + len(riding)
            for key in super().select(view, headroom):
                if key.change_id in riding or key in seen:
                    continue
                seen.add(key)
                selected.append(key)
                if len(selected) >= budget:
                    break
        return selected

    def scheduled_batch_members(self, key: BuildKey) -> Tuple[ChangeId, ...]:
        """Members riding in the scheduled batch build ``key`` (or ``()``).

        Inspection only: nothing in the planner or the controller reads
        it; batch resolution goes through :meth:`interpret`.
        """
        entry = self._groups.get(key)
        return entry[0] if entry is not None else ()

    # -- batch resolution -----------------------------------------------------

    def interpret(
        self, key: BuildKey, success: bool, view: PlannerView, now: float
    ) -> Optional[List[Decision]]:
        entry = self._groups.pop(key, None)
        if entry is None:
            return None  # not a batch build: planner default rule
        members, depth = entry
        if success:
            self._resolve(now, "landed", members, depth)
            reason = (
                f"risk batch of {len(members)} passed"
                if depth == 0
                else f"bisection sub-batch of {len(members)} passed"
            )
            # Submission order == stack order: the passing prefix commits
            # in the order the batch stacked it.  Members a concurrent
            # solo build already decided are skipped (stale no-ops).
            return [
                Decision(member, True, now, reason=reason)
                for member in members
                if member not in view.decided
            ]
        # Failure: someone in the batch is a culprit.  Halve
        # deterministically; halves rebuild next epoch, singletons fall
        # through to decisive builds.  Members never re-enter fresh
        # batches mid-bisection.
        first, second = bisect_halves(members)
        self._no_batch.update(members)
        self._bisect_queue.append((first, depth + 1))
        self._bisect_queue.append((second, depth + 1))
        self._resolve(now, "bisect", members, depth)
        return []

    def _resolve(
        self,
        now: float,
        kind: str,
        members: Tuple[ChangeId, ...],
        depth: int,
    ) -> None:
        """Account one batch-build resolution: stats, histograms, and the
        buffered event the service drains into its ``batch`` record."""
        if kind == "landed":
            self.batch_stats.batches_landed += 1
            self.batch_stats.members_committed += len(members)
        else:
            self.batch_stats.bisections += 1
        self.batch_stats.deepest_bisection = max(
            self.batch_stats.deepest_bisection, depth
        )
        self._journal_events.append(
            {
                "at": now,
                "kind": kind,
                "members": list(members),
                "depth": depth,
            }
        )
        if self._recorder.enabled:
            self._recorder.histogram(
                "risk_batch_size",
                "Members per resolved batch build.",
                buckets=(2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0),
            ).observe(float(len(members)))
            self._recorder.histogram(
                "risk_batch_bisect_depth",
                "Bisection depth of each resolved batch build (0 = fresh).",
                buckets=(0.0, 1.0, 2.0, 3.0, 4.0, 6.0),
            ).observe(float(depth))

    def drain_journal_events(self) -> List[Dict[str, object]]:
        """Batch resolutions since the last drain (service journal hook)."""
        events, self._journal_events = self._journal_events, []
        return events

    def on_decision(self, change, decision: Decision, view: PlannerView) -> None:
        super().on_decision(change, decision, view)
        self._no_batch.discard(change.change_id)
