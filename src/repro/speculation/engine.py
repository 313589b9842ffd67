"""The speculation engine: global best-first build selection.

Every epoch the planner asks for the ``budget`` most valuable builds
across all pending changes (section 3.2).  The engine:

1. estimates ``P_commit`` for every pending change (Equations 1–5, with
   decided changes contributing certainty);
2. creates one lazy :class:`~repro.speculation.tree.SubsetEnumerator` per
   pending change — each yields that change's builds in decreasing value;
3. merges the enumerators with a max-heap, popping globally best builds
   until the budget is filled or values vanish.

Memory stays O(pending changes + budget): only one frontier node per
enumerator lives in the merge heap (the greedy best-first property called
out in section 7.1).

Selection is *incremental across epochs*.  The engine fingerprints each
round's inputs — per pending change its dynamic speculation counters,
frozen ancestor list, and the ancestors' decided statuses, plus the
budget — and

* returns the previous selection outright when nothing changed
  (``skipped_replans_total``);
* otherwise re-estimates ``P_commit`` only for the downstream cone of
  the changes whose inputs moved, reusing every other value bit-for-bit
  (``commit_prob_reused_total``);
* carries :class:`SubsetEnumerator` heap state across epochs whenever a
  change's ``(pending ancestors, probability slice, known committed,
  benefit)`` inputs are unchanged, so already-expanded frontier nodes are
  replayed instead of regenerated.

Incremental selection is bit-identical to from-scratch selection: every
reused value was produced by the same deterministic recurrence the
from-scratch path would re-run.  This assumes the predictor is
deterministic in ``(change id, speculation counters)`` for ``p_success``
and in the id pair for ``p_conflict`` — true of every predictor in this
repo (the learned one caches on exactly those keys).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.changes.change import Change
from repro.changes.state import ChangeRecord
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import UNIT_BUCKETS, CounterStats
from repro.predictor.predictors import Predictor
from repro.speculation.batching import BatchPlan, plan_batches
from repro.speculation.probability import (
    conditional_success,
    dirty_cone,
    estimate_commit_probabilities,
    estimate_commit_probabilities_incremental,
)
from repro.speculation.tree import SpeculationNode, SubsetEnumerator
from repro.types import BuildKey, ChangeId

#: Benefit assigned to a build; the paper uses 1 for all builds but allows
#: priorities (security patches, team quotas) — callers may override.
BenefitFunction = Callable[[Change], float]


@dataclass(frozen=True)
class ScoredBuild:
    """A selected build with the metrics that justified it."""

    key: BuildKey
    value: float
    p_needed: float
    conditional_success: float

    @property
    def change_id(self) -> ChangeId:
        return self.key.change_id


class SpeculationEngineStats(CounterStats):
    """Incremental-selection effectiveness counters.

    Mirrors :class:`~repro.conflict.analyzer.ConflictAnalyzerStats`: every
    counter lives in a :class:`~repro.obs.registry.MetricsRegistry` (the
    engine's recorder's, when one is attached, so the series appear in the
    run's Prometheus/JSON dumps).
    """

    #: attribute -> (metric name, labels, help).
    _SERIES = {
        "selections": (
            "speculation_selection_rounds_total",
            None,
            "select_builds() rounds, skipped or computed.",
        ),
        "skipped_replans": (
            "skipped_replans_total",
            None,
            "Selection rounds answered whole from the previous epoch "
            "(input fingerprint unchanged).",
        ),
        "commit_prob_reused": (
            "commit_prob_reused_total",
            None,
            "P_commit values reused from the previous epoch (outside the "
            "dirty cone).",
        ),
        "commit_prob_recomputed": (
            "commit_prob_recomputed_total",
            None,
            "P_commit values re-swept (inside the dirty cone).",
        ),
        "enumerators_reused": (
            "speculation_enumerators_reused_total",
            None,
            "Subset enumerators carried across epochs with heap state "
            "intact.",
        ),
        "enumerators_rebuilt": (
            "speculation_enumerators_rebuilt_total",
            None,
            "Subset enumerators (re)built because their inputs changed.",
        ),
        "nodes_replayed": (
            "speculation_nodes_replayed_total",
            None,
            "Merge-heap nodes served from an enumerator's memoized prefix.",
        ),
    }

    @property
    def skip_rate(self) -> float:
        """Fraction of rounds answered entirely by the fingerprint."""
        return self.skipped_replans / self.selections if self.selections else 0.0

    @property
    def commit_prob_reuse_rate(self) -> float:
        total = self.commit_prob_reused + self.commit_prob_recomputed
        return self.commit_prob_reused / total if total else 0.0


class _SelectionMetrics:
    """Hoisted recorder handles for the per-round instrumentation.

    ``recorder.counter(...)`` resolves a metric family on every call;
    these handles do the lookup once so the selection hot loop pays an
    attribute read instead.
    """

    __slots__ = (
        "selections",
        "nodes_expanded",
        "pending",
        "tree_size",
        "selected",
        "value_hist",
        "p_needed_hist",
    )

    def __init__(self, recorder: Recorder) -> None:
        self.selections = recorder.counter(
            "speculation_selections_total", "Speculation selection rounds."
        )
        self.nodes_expanded = recorder.counter(
            "speculation_nodes_expanded_total",
            "Speculation-tree nodes generated across all enumerators.",
        )
        self.pending = recorder.gauge(
            "speculation_pending_changes",
            "Pending changes seen by the last selection round.",
        )
        self.tree_size = recorder.gauge(
            "speculation_tree_size",
            "Per-change enumerators (speculation-tree roots) in the last "
            "round.",
        )
        self.selected = recorder.gauge(
            "speculation_selected_builds",
            "Builds selected in the last round.",
        )
        self.value_hist = recorder.histogram(
            "speculation_build_value",
            "Value of each selected build (Equations 1-5).",
            buckets=UNIT_BUCKETS,
        )
        self.p_needed_hist = recorder.histogram(
            "speculation_p_needed",
            "P_needed of each selected build.",
            buckets=UNIT_BUCKETS,
        )


#: Per-change selection inputs: (speculations_succeeded,
#: speculations_failed, frozen ancestor tuple, ancestor decided statuses).
_ChangeInputs = Tuple[int, int, Tuple[ChangeId, ...], Tuple[Optional[bool], ...]]


def unit_benefit(change) -> float:
    """The default benefit function: every change is worth 1.0.

    A named top-level function (not a lambda) so engine configurations
    remain picklable for process dispatch.
    """
    return 1.0


class SpeculationEngine:
    """Selects the most valuable speculative builds under a budget."""

    def __init__(
        self,
        predictor: Predictor,
        benefit: Optional[BenefitFunction] = None,
        min_value: float = 1e-9,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self._predictor = predictor
        self._benefit = benefit if benefit is not None else unit_benefit
        self._min_value = min_value
        self._recorder = recorder
        self._metrics: Optional[_SelectionMetrics] = None
        #: Nodes generated during the current selection round.
        self._nodes_expanded = 0
        self.stats = SpeculationEngineStats(
            recorder.registry if recorder.enabled else None
        )
        self._count = self.stats.counters
        # -- carry-over state (see module docstring) ------------------------
        #: Fingerprint + result of the last computed round.
        self._prev_fingerprint: Optional[tuple] = None
        self._prev_selection: Optional[List[ScoredBuild]] = None
        #: Last round's per-change inputs and P_commit values.
        self._prev_inputs: Dict[ChangeId, _ChangeInputs] = {}
        self._prev_probs: Dict[ChangeId, float] = {}
        self._seen_round = False
        #: Enumerators carried across epochs, with their input signature.
        self._enumerators: Dict[ChangeId, SubsetEnumerator] = {}
        self._enum_signatures: Dict[ChangeId, tuple] = {}
        #: Predictor answers already paid for: per-change P_succ keyed by
        #: the speculation counters it was computed under, and per
        #: (ancestor, change) conflict probabilities.
        self._p_success: Dict[ChangeId, Tuple[Tuple[int, int], float]] = {}
        self._p_conflict: Dict[ChangeId, Dict[ChangeId, float]] = {}

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach an observability recorder (planner-injected)."""
        self._recorder = recorder
        self._metrics = None
        self.stats = SpeculationEngineStats(
            recorder.registry if recorder.enabled else None
        )
        self._count = self.stats.counters

    def invalidate_carry_over(self) -> None:
        """Drop all incremental state; the next round recomputes cold."""
        self._prev_fingerprint = None
        self._prev_selection = None
        self._prev_inputs = {}
        self._prev_probs = {}
        self._seen_round = False
        self._enumerators = {}
        self._enum_signatures = {}
        self._p_success = {}
        self._p_conflict = {}

    # -- probability plumbing ------------------------------------------------

    def commit_probabilities(
        self,
        pending: Sequence[Change],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
    ) -> Dict[ChangeId, float]:
        """``P_commit`` for every pending change (decided ones are 0/1).

        From-scratch and side-effect free: what-if callers (reordering
        policies, tests) may pass hypothetical orders without perturbing
        the carry-over state :meth:`select_builds` maintains.
        """

        def p_success(change_id: ChangeId) -> float:
            change = changes_by_id[change_id]
            return self._predictor.p_success(change, records.get(change_id))

        def p_conflict(first_id: ChangeId, second_id: ChangeId) -> float:
            return self._predictor.p_conflict(
                changes_by_id[first_id], changes_by_id[second_id]
            )

        order = [change.change_id for change in pending]
        return estimate_commit_probabilities(
            order, ancestors, p_success, p_conflict, decided
        )

    def plan_risk_batches(
        self,
        candidates: Sequence[ChangeId],
        records: Mapping[ChangeId, ChangeRecord],
        changes_by_id: Mapping[ChangeId, Change],
        batch_size: int,
        member_confidence: float,
        max_pair_conflict: float,
        min_joint_success: float,
    ) -> List["BatchPlan"]:
        """Greedy jointly-low-risk batches over ``candidates``.

        ``candidates`` must be pending changes whose conflicting ancestors
        are all decided, in submission order (the strategy layer enforces
        eligibility).  With no pending ancestors a candidate's commit mass
        *is* its decisive success probability, so the batch value — the
        Equations 1-5 mass a single build decides — is the sum of member
        ``P_succ``.  Probabilities come from the same per-round caches the
        selection path fills, so batch planning never re-asks the
        predictor for an answer selection already paid for.
        """
        if len(candidates) < 2:
            return []
        counters: Dict[ChangeId, Tuple[int, int]] = {}
        for change_id in candidates:
            record = records.get(change_id)
            counters[change_id] = (
                record.speculations_succeeded if record is not None else 0,
                record.speculations_failed if record is not None else 0,
            )
        self._batch_p_success(candidates, counters, changes_by_id, records)

        def p_success(change_id: ChangeId) -> float:
            return self._cached_p_success(
                change_id, counters[change_id], changes_by_id, records
            )

        def p_conflict(first_id: ChangeId, second_id: ChangeId) -> float:
            return self._cached_p_conflict(first_id, second_id, changes_by_id)

        return plan_batches(
            candidates,
            p_success,
            p_conflict,
            commit_mass=p_success,
            batch_size=batch_size,
            member_confidence=member_confidence,
            max_pair_conflict=max_pair_conflict,
            min_joint_success=min_joint_success,
        )

    def _change_inputs(
        self,
        pending: Sequence[Change],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
    ) -> Dict[ChangeId, _ChangeInputs]:
        inputs: Dict[ChangeId, _ChangeInputs] = {}
        for change in pending:
            change_id = change.change_id
            record = records.get(change_id)
            ancs = tuple(ancestors.get(change_id, ()))
            inputs[change_id] = (
                record.speculations_succeeded if record is not None else 0,
                record.speculations_failed if record is not None else 0,
                ancs,
                tuple(decided.get(a) for a in ancs),
            )
        return inputs

    def _cached_p_success(
        self,
        change_id: ChangeId,
        counters: Tuple[int, int],
        changes_by_id: Mapping[ChangeId, Change],
        records: Mapping[ChangeId, ChangeRecord],
    ) -> float:
        hit = self._p_success.get(change_id)
        if hit is not None and hit[0] == counters:
            return hit[1]
        value = self._predictor.p_success(
            changes_by_id[change_id], records.get(change_id)
        )
        self._p_success[change_id] = (counters, value)
        return value

    def _cached_p_conflict(
        self,
        first_id: ChangeId,
        second_id: ChangeId,
        changes_by_id: Mapping[ChangeId, Change],
    ) -> float:
        per_change = self._p_conflict.setdefault(second_id, {})
        value = per_change.get(first_id)
        if value is None:
            value = self._predictor.p_conflict(
                changes_by_id[first_id], changes_by_id[second_id]
            )
            per_change[first_id] = value
        return value

    def _batch_p_success(
        self,
        change_ids: Sequence[ChangeId],
        inputs: Mapping[ChangeId, _ChangeInputs],
        changes_by_id: Mapping[ChangeId, Change],
        records: Mapping[ChangeId, ChangeRecord],
    ) -> None:
        """Warm the P_succ cache for ``change_ids`` in one vectorized call.

        Predictors exposing ``p_success_many`` (the learned one routes it
        through ``LogisticRegression.predict_many``) answer all cold
        entries with a single matrix pass instead of one sigmoid per
        change.
        """
        many = getattr(self._predictor, "p_success_many", None)
        if many is None:
            return
        needed: List[Tuple[Change, Optional[ChangeRecord]]] = []
        needed_ids: List[ChangeId] = []
        for change_id in change_ids:
            counters = inputs[change_id][:2]
            hit = self._p_success.get(change_id)
            if hit is not None and hit[0] == counters:
                continue
            needed.append((changes_by_id[change_id], records.get(change_id)))
            needed_ids.append(change_id)
        if not needed:
            return
        values = many(needed)
        for change_id, value in zip(needed_ids, values):
            self._p_success[change_id] = (inputs[change_id][:2], float(value))

    def _incremental_commit_probabilities(
        self,
        order: Sequence[ChangeId],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        inputs: Mapping[ChangeId, _ChangeInputs],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
    ) -> Dict[ChangeId, float]:
        """Dirty-set ``P_commit`` reusing last epoch outside the cone."""
        dirty = {
            cid for cid in order if self._prev_inputs.get(cid) != inputs[cid]
        }

        def p_success(change_id: ChangeId) -> float:
            return self._cached_p_success(
                change_id, inputs[change_id][:2], changes_by_id, records
            )

        def p_conflict(first_id: ChangeId, second_id: ChangeId) -> float:
            return self._cached_p_conflict(first_id, second_id, changes_by_id)

        if self._seen_round:
            cone = dirty_cone(order, ancestors, dirty)
            recompute = [
                cid for cid in order
                if cid in cone or cid not in self._prev_probs
            ]
            self._batch_p_success(recompute, inputs, changes_by_id, records)
            result, reused = estimate_commit_probabilities_incremental(
                order,
                ancestors,
                p_success,
                p_conflict,
                decided,
                previous=self._prev_probs,
                dirty=dirty,
            )
        else:
            self._batch_p_success(list(order), inputs, changes_by_id, records)
            result = estimate_commit_probabilities(
                order, ancestors, p_success, p_conflict, decided
            )
            reused = 0
        self._count["commit_prob_reused"].inc(reused)
        self._count["commit_prob_recomputed"].inc(len(order) - reused)
        self._prev_probs = {cid: result[cid] for cid in order}
        self._prev_inputs = dict(inputs)
        self._seen_round = True
        return result

    # -- selection ----------------------------------------------------------

    def select_builds(
        self,
        pending: Sequence[Change],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        budget: int,
        changes_by_id: Optional[Mapping[ChangeId, Change]] = None,
    ) -> List[ScoredBuild]:
        """The top-``budget`` builds by value, best first.

        ``pending`` must be in submission order.  ``ancestors`` maps each
        pending change to *all* its conflicting predecessors (pending or
        decided, in submission order); ``decided`` maps decided change ids
        to whether they committed.  ``changes_by_id`` must cover pending
        changes *and* decided ancestors; it defaults to the pending set,
        which suffices only when nothing has been decided yet.
        """
        if budget <= 0:
            return []
        if changes_by_id is None:
            changes_by_id = {change.change_id: change for change in pending}
        order = [change.change_id for change in pending]
        inputs = self._change_inputs(pending, ancestors, records, decided)
        fingerprint = (
            tuple((cid, inputs[cid]) for cid in order),
            budget,
        )
        self._count["selections"].inc()
        if (
            self._prev_selection is not None
            and fingerprint == self._prev_fingerprint
        ):
            # Nothing the selection depends on moved since last epoch:
            # the previous round's answer is this round's answer.
            self._count["skipped_replans"].inc()
            return list(self._prev_selection)

        commit_probabilities = self._incremental_commit_probabilities(
            order, ancestors, inputs, records, decided, changes_by_id
        )

        # One lazy enumerator per pending change; merge via a max-heap of
        # (negated value, tiebreak, change id).  ``tiebreak`` prefers
        # earlier-submitted changes so equal-value builds respect queue
        # order (Speculate-all degenerates to breadth-first this way).
        # Enumerators whose inputs are unchanged are replayed with their
        # memoized prefix + heap state instead of being rebuilt.
        cursors: Dict[ChangeId, Iterator[SpeculationNode]] = {}
        merge_heap: List = []
        generated_before = 0
        consumed = 0
        for position, change in enumerate(pending):
            change_id = change.change_id
            all_ancestors = inputs[change_id][2]
            pending_ancestors = [a for a in all_ancestors if a not in decided]
            known_committed = frozenset(
                a for a in all_ancestors if decided.get(a, False)
            )
            benefit = self._benefit(change)
            signature = (
                tuple(pending_ancestors),
                tuple(commit_probabilities[a] for a in pending_ancestors),
                known_committed,
                benefit,
            )
            enumerator = self._enumerators.get(change_id)
            if (
                enumerator is not None
                and self._enum_signatures.get(change_id) == signature
            ):
                self._count["enumerators_reused"].inc()
            else:
                enumerator = SubsetEnumerator(
                    change_id,
                    pending_ancestors,
                    commit_probabilities,
                    known_committed=known_committed,
                    benefit=benefit,
                )
                self._enumerators[change_id] = enumerator
                self._enum_signatures[change_id] = signature
                self._count["enumerators_rebuilt"].inc()
            generated_before += enumerator.generated_count
            cursor = enumerator.replay()
            cursors[change_id] = cursor
            consumed += self._push_next(merge_heap, cursor, position, change_id)

        selected: List[ScoredBuild] = []
        while merge_heap and len(selected) < budget:
            neg_value, position, change_id, node = heapq.heappop(merge_heap)
            if -neg_value < self._min_value:
                # The k-way merge pops values in non-increasing order, so
                # everything left is worthless too: stop, do not exhaust
                # the exponential enumerators.
                break
            consumed += self._push_next(
                merge_heap, cursors[change_id], position, change_id
            )
            selected.append(
                self._score(node, changes_by_id, inputs, decided, records)
            )

        generated_after = sum(
            self._enumerators[cid].generated_count for cid in order
        )
        self._nodes_expanded = generated_after - generated_before
        # Every consumed node either came from a memoized prefix or was
        # generated fresh; the difference is exactly the replayed count.
        self._count["nodes_replayed"].inc(consumed - self._nodes_expanded)
        self._prune_departed(order)
        self._prev_fingerprint = fingerprint
        self._prev_selection = list(selected)
        if self._recorder.enabled:
            self._record_selection(pending, len(cursors), selected)
        return selected

    def _prune_departed(self, order: Sequence[ChangeId]) -> None:
        """Drop carry-over for changes no longer pending (decided/gone)."""
        current = set(order)
        for store in (
            self._enumerators,
            self._enum_signatures,
            self._p_success,
            self._p_conflict,
        ):
            departed = [cid for cid in store if cid not in current]
            for cid in departed:
                del store[cid]

    def _record_selection(
        self,
        pending: Sequence[Change],
        enumerator_count: int,
        selected: Sequence[ScoredBuild],
    ) -> None:
        """Publish one selection round's shape to the registry."""
        if self._metrics is None:
            self._metrics = _SelectionMetrics(self._recorder)
        metrics = self._metrics
        metrics.selections.inc()
        metrics.nodes_expanded.inc(self._nodes_expanded)
        metrics.pending.set(len(pending))
        metrics.tree_size.set(enumerator_count)
        metrics.selected.set(len(selected))
        for build in selected:
            metrics.value_hist.observe(build.value)
            metrics.p_needed_hist.observe(build.p_needed)

    def _push_next(
        self,
        heap,
        cursor: Iterator[SpeculationNode],
        position: int,
        change_id: ChangeId,
    ) -> int:
        node = next(cursor, None)
        if node is None:
            return 0
        heapq.heappush(heap, (-node.value, position, change_id, node))
        return 1

    def _score(
        self,
        node: SpeculationNode,
        changes_by_id: Mapping[ChangeId, Change],
        inputs: Mapping[ChangeId, _ChangeInputs],
        decided: Mapping[ChangeId, bool],
        records: Mapping[ChangeId, ChangeRecord],
    ) -> ScoredBuild:
        change_id = node.change_id
        stacked = [
            a
            for a in inputs[change_id][2]
            if a in node.key.assumed and a in changes_by_id and a not in decided
        ]
        # Both probabilities were already computed this round (or a prior
        # one) while estimating P_commit; answer from the engine caches
        # instead of re-asking the predictor per selected build.
        conditional = conditional_success(
            self._cached_p_success(
                change_id, inputs[change_id][:2], changes_by_id, records
            ),
            (
                self._cached_p_conflict(other, change_id, changes_by_id)
                for other in stacked
            ),
        )
        return ScoredBuild(
            key=node.key,
            value=node.value,
            p_needed=node.p_needed,
            conditional_success=conditional,
        )
