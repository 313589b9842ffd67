"""The speculation engine: global best-first build selection.

Every epoch the planner asks for the ``budget`` most valuable builds
across all pending changes (section 3.2).  The engine:

1. estimates ``P_commit`` for every pending change (Equations 1–5, with
   decided changes contributing certainty);
2. seeds a max-heap with each pending change's top value — the value of
   its likeliest build, known from its ancestors' ``P_commit`` alone;
3. pops globally best builds until the budget is filled or values
   vanish; a change gets a lazy
   :class:`~repro.speculation.tree.SubsetEnumerator` (its builds in
   decreasing value) the first time the merge pops it.

Memory stays O(pending changes + budget): only one frontier node per
change lives in the merge heap (the greedy best-first property called
out in section 7.1).

Selection is *incremental across epochs*: the engine keeps one table
entry per pending change — its frozen ancestor tuple, the speculation
counters its ``P_succ`` was asked under, ``P_succ``, the ``P_conf`` of
each ancestor asked so far, ``P_commit``, its pending ancestors with their
``P_commit``, its top value and, once popped, its enumerator — plus an
ancestor → children index over the pending changes.  A round

* scans the pending order once for arrivals, departures, edited ancestor
  lists and moved counters (a reorder reaches it as the caller's
  ``ancestry_version``; a caller that passes none gets every ancestor
  list compared).  A moved counter re-asks ``P_succ``, but dirties the
  change only when the answer differs bit for bit from the held one;
* walks the dirty set's downstream cone through the children index and
  re-sweeps ``P_commit`` only there, in queue order, reusing every other
  value bit-for-bit (``commit_prob_reused_total``) — a round in which
  nothing moved sweeps an empty cone;
* drops a cone member's enumerator only when its pending ancestors or
  their ``P_commit`` moved; everything else keeps its enumerator —
  memoized prefix and heap state — untouched.

The table relies on one planner invariant: a pending change's ancestors
change status only when a change leaves the pending order, i.e.
``decided`` grows by exactly the departures a round sees.  The engine
checks it every round and runs the round cold when it does not hold (and
the next round too, while a pending change already has a verdict).

Incremental selection is bit-identical to from-scratch selection: every
reused value was produced by the same deterministic recurrence the
from-scratch path would re-run.  This assumes the predictor is
deterministic in ``(change id, speculation counters)`` for ``p_success``
and in the id pair for ``p_conflict`` — true of every predictor in this
repo (the learned one caches on exactly those keys) — and that the
benefit function is a pure function of the change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
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
from repro.obs.registry import UNIT_BUCKETS, metric_field
from repro.predictor.predictors import Predictor
from repro.speculation.batching import BatchPlan, plan_batches
from repro.speculation.probability import (
    conditional_success,
    estimate_commit_probabilities,
)
from repro.speculation.tree import SpeculationNode, SubsetEnumerator, top_p_needed
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


@dataclass
class SpeculationEngineStats:
    """Selection rounds and incremental-selection effectiveness; every
    field is exposed on the engine's recorder."""

    selections: int = metric_field(
        "speculation_selections_total", "Speculation selection rounds."
    )
    commit_prob_reused: int = metric_field(
        "commit_prob_reused_total",
        "P_commit values reused from the previous epoch (outside the "
        "dirty cone).",
    )
    commit_prob_recomputed: int = metric_field(
        "commit_prob_recomputed_total",
        "P_commit values re-swept (inside the dirty cone).",
    )
    enumerators_reused: int = metric_field(
        "speculation_enumerators_reused_total",
        "Popped changes whose subset enumerator carried over from an "
        "earlier epoch with its heap state intact.",
    )
    enumerators_rebuilt: int = metric_field(
        "speculation_enumerators_rebuilt_total",
        "Subset enumerators built for a popped change that had none "
        "current.",
    )
    nodes_replayed: int = metric_field(
        "speculation_nodes_replayed_total",
        "Merge-heap nodes served from an enumerator's memoized prefix.",
    )


class _SelectionMetrics:
    """Hoisted recorder handles for the per-round instrumentation.

    ``recorder.counter(...)`` resolves a metric family on every call;
    these handles do the lookup once so the selection hot loop pays an
    attribute read instead.
    """

    __slots__ = (
        "nodes_expanded",
        "selected",
        "value_hist",
        "p_needed_hist",
    )

    def __init__(self, recorder: Recorder) -> None:
        self.nodes_expanded = recorder.counter(
            "speculation_nodes_expanded_total",
            "Speculation-tree nodes generated across all enumerators.",
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


def unit_benefit(change) -> float:
    """The default benefit function: every change is worth 1.0.

    A named top-level function (not a lambda) so engine configurations
    remain picklable for process dispatch.
    """
    return 1.0


class _Entry:
    """What selection keeps about one pending change across rounds."""

    __slots__ = (
        "change",
        "benefit",
        "ancestors",
        "counters",
        "p_success",
        "p_conflict",
        "p_commit",
        "pending",
        "probabilities",
        "top",
        "enumerator",
    )

    def __init__(self, change: Change, benefit: float) -> None:
        self.change = change
        self.benefit = benefit
        #: Frozen tuple of *all* conflicting predecessors, pending or
        #: decided, in the caller's order; ``None`` until a selection round
        #: has seen the change (batch planning may meet it first).
        self.ancestors: Optional[Tuple[ChangeId, ...]] = None
        #: ``(speculations_succeeded, speculations_failed)`` that
        #: ``p_success`` was asked under; ``None`` before the first ask.
        self.counters: Optional[Tuple[int, int]] = None
        self.p_success = 0.0
        #: ``P_conf(other, this change)`` for every ``other`` asked so far.
        self.p_conflict: Dict[ChangeId, float] = {}
        self.p_commit = 0.0
        #: Pending ancestors and their ``P_commit``, in ancestor order: the
        #: inputs ``enumerator`` is built from (``None`` forces a rebuild).
        self.pending: Optional[Tuple[ChangeId, ...]] = None
        self.probabilities: Tuple[float, ...] = ()
        #: Value of the change's best build: its enumerator's first node.
        self.top = 0.0
        #: Built the first round the merge pops the change.
        self.enumerator: Optional[SubsetEnumerator] = None


#: ``(entry, its record, the record's speculation counters)`` of a change
#: whose ``P_succ`` must be (re)asked.
_StaleSuccess = Tuple[_Entry, Optional[ChangeRecord], Tuple[int, int]]


def _speculation_counters(record: Optional[ChangeRecord]) -> Tuple[int, int]:
    if record is None:
        return (0, 0)
    return (record.speculations_succeeded, record.speculations_failed)


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
        #: Nodes generated during the current selection round.
        self._nodes_expanded = 0
        self.bind_recorder(recorder)
        self.invalidate_carry_over()

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach an observability recorder (planner-injected); the stats
        start over and are exposed on it."""
        self._recorder = recorder
        self._metrics: Optional[_SelectionMetrics] = None
        self.stats = SpeculationEngineStats()
        recorder.expose(self.stats)

    def invalidate_carry_over(self) -> None:
        """Drop all incremental state; the next round recomputes cold."""
        #: One entry per pending change (see the module docstring).
        self._entries: Dict[ChangeId, _Entry] = {}
        #: Pending ancestor -> the pending changes that list it.
        self._children: Dict[ChangeId, Set[ChangeId]] = {}
        #: The pending order the last round saw.
        self._order: List[ChangeId] = []
        self._ancestry_version: Optional[int] = None
        self._decided_count = 0
        #: Changes whose re-asked ``P_succ`` differed from the held one
        #: since the last round's scan; the next round dirties them.
        self._moved: Set[ChangeId] = set()

    def _entry(
        self, change_id: ChangeId, changes_by_id: Mapping[ChangeId, Change]
    ) -> _Entry:
        """``change_id``'s table entry, created on first sight."""
        entry = self._entries.get(change_id)
        if entry is None:
            change = changes_by_id[change_id]
            entry = self._entries[change_id] = _Entry(
                change, self._benefit(change)
            )
        return entry

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
        ``P_succ``.  Probabilities are read from and kept in the table
        entries the selection path uses, so batch planning never re-asks
        the predictor for an answer selection already paid for.
        """
        if len(candidates) < 2:
            return []
        entries = self._entries
        stale: List[_StaleSuccess] = []
        for change_id in candidates:
            entry = self._entry(change_id, changes_by_id)
            record = records.get(change_id)
            counters = _speculation_counters(record)
            if counters != entry.counters:
                stale.append((entry, record, counters))
        self._ask_p_success(stale)

        def p_success(change_id: ChangeId) -> float:
            return entries[change_id].p_success

        def p_conflict(first_id: ChangeId, second_id: ChangeId) -> float:
            return self._p_conflict(
                entries[second_id], first_id, changes_by_id
            )

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

    def _ask_p_success(self, stale: Sequence[_StaleSuccess]) -> None:
        """Refresh ``P_succ`` of every stale entry, in one vectorized call
        when the predictor has one.

        Predictors exposing ``p_success_many`` (the learned one routes it
        through ``LogisticRegression.predict_many``) answer all of them
        with a single matrix pass instead of one sigmoid per change.

        Only an answer that differs from the held value, bit for bit,
        moves the entry: a predictor blind to the counters (the static
        one) re-answers every completed speculation with the same number,
        and nothing downstream of it has to be re-swept.
        """
        if not stale:
            return
        many = getattr(self._predictor, "p_success_many", None)
        if many is not None:
            values = [
                float(value)
                for value in many(
                    [(entry.change, record) for entry, record, _ in stale]
                )
            ]
        else:
            values = [
                self._predictor.p_success(entry.change, record)
                for entry, record, _ in stale
            ]
        for (entry, _, counters), value in zip(stale, values):
            entry.counters = counters
            if value != entry.p_success:
                entry.p_success = value
                self._moved.add(entry.change.change_id)

    def _p_conflict(
        self,
        entry: _Entry,
        other_id: ChangeId,
        changes_by_id: Mapping[ChangeId, Change],
    ) -> float:
        """``P_conf(other, entry's change)``, asked at most once."""
        value = entry.p_conflict.get(other_id)
        if value is None:
            value = entry.p_conflict[other_id] = self._predictor.p_conflict(
                changes_by_id[other_id], entry.change
            )
        return value

    # -- selection ----------------------------------------------------------

    def select_builds(
        self,
        pending: Sequence[Change],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        budget: int,
        changes_by_id: Optional[Mapping[ChangeId, Change]] = None,
        ancestry_version: Optional[int] = None,
    ) -> List[ScoredBuild]:
        """The top-``budget`` builds by value, best first.

        ``pending`` must be in submission order.  ``ancestors`` maps each
        pending change to *all* its conflicting predecessors (pending or
        decided, in submission order); ``decided`` maps decided change ids
        to whether they committed.  ``changes_by_id`` must cover pending
        changes *and* decided ancestors; it defaults to the pending set,
        which suffices only when nothing has been decided yet.

        ``ancestry_version`` is the caller's promise about ``ancestors``:
        while it repeats the value of the previous round, no change the
        engine has already seen had its ancestor list edited (the planner
        bumps it on every applied reorder).  Without it every pending
        change's ancestor list is compared against the table each round.
        """
        if budget <= 0:
            return []
        if changes_by_id is None:
            changes_by_id = {change.change_id: change for change in pending}
        order = [change.change_id for change in pending]
        stats = self.stats
        stats.selections += 1
        try:
            dirty = self._fold_events(
                order, ancestors, records, decided, changes_by_id, ancestry_version
            )
            cone_order: List[ChangeId] = []
            if dirty:
                cone = self._downstream_cone(dirty)
                cone_order = [cid for cid in order if cid in cone]
                self._sweep(cone_order, decided, changes_by_id)
            selected = self._merge(order, budget, decided, changes_by_id)
        except Exception:
            # A round that fails half-way leaves entries whose dirtiness is
            # forgotten; the next round must not trust any of them.
            self.invalidate_carry_over()
            raise
        stats.commit_prob_recomputed += len(cone_order)
        stats.commit_prob_reused += len(order) - len(cone_order)
        self._order = order
        if self._recorder.enabled:
            self._record_selection(selected)
        return selected

    def _fold_events(
        self,
        order: List[ChangeId],
        ancestors: Mapping[ChangeId, Sequence[ChangeId]],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
        ancestry_version: Optional[int],
    ) -> Set[ChangeId]:
        """Bring the table up to date with what moved since the last round.

        Drops the entries of departed changes, creates entries for
        arrivals, re-freezes edited ancestor lists, re-asks ``P_succ``
        where speculation counters moved, and keeps the children index in
        step.  Returns the *dirty* pending changes — those whose own
        ``P_commit`` inputs moved; their downstream cone is what the round
        must recompute.
        """
        entries = self._entries
        departed: List[ChangeId] = []
        if order != self._order or len(entries) != len(order):
            current = set(order)
            departed = [cid for cid in entries if cid not in current]
        decided_count = len(decided)
        if decided_count - self._decided_count != len(departed) or not all(
            cid in decided for cid in departed
        ):
            # The invariant the table rests on — ``decided`` grows by
            # exactly the changes that left the pending order — does not
            # hold for this caller: answer this round from nothing.
            self.invalidate_carry_over()
            entries = self._entries
            departed = []
            if any(cid in decided for cid in order):
                # A pending change already has a verdict.  Its departure
                # would not grow ``decided`` and could hide a new verdict
                # from the count: the next round runs from nothing too.
                decided_count = -1
        children = self._children
        dirty: Set[ChangeId] = set()
        for change_id in departed:
            self._unindex(change_id, entries.pop(change_id))
            # A departed ancestor is now certain (0.0 or 1.0).
            dirty.update(children.pop(change_id, ()))

        compare_ancestors = (
            ancestry_version is None
            or ancestry_version != self._ancestry_version
        )
        stale: List[_StaleSuccess] = []
        for change_id in order:
            entry = self._entry(change_id, changes_by_id)
            if compare_ancestors or entry.ancestors is None:
                frozen = tuple(ancestors.get(change_id, ()))
                if frozen != entry.ancestors:
                    self._unindex(change_id, entry)
                    entry.ancestors = frozen
                    entry.pending = None
                    for ancestor_id in frozen:
                        if ancestor_id not in decided:
                            children.setdefault(ancestor_id, set()).add(
                                change_id
                            )
                    dirty.add(change_id)
            record = records.get(change_id)
            counters = _speculation_counters(record)
            if counters != entry.counters:
                stale.append((entry, record, counters))
        self._ask_p_success(stale)
        dirty.update(self._moved)
        self._moved.clear()
        dirty.difference_update(departed)
        self._ancestry_version = ancestry_version
        self._decided_count = decided_count
        return dirty

    def _unindex(self, change_id: ChangeId, entry: _Entry) -> None:
        """Take ``change_id`` out of its ancestors' children sets."""
        children = self._children
        for ancestor_id in entry.ancestors or ():
            siblings = children.get(ancestor_id)
            if siblings is not None:
                siblings.discard(change_id)

    def _downstream_cone(self, dirty: Set[ChangeId]) -> Set[ChangeId]:
        """``dirty`` plus every pending change downstream of it.

        A change's ``P_commit`` depends only on its own inputs and its
        ancestors' ``P_commit``, so a change whose inputs moved
        invalidates exactly its descendant cone in the ancestor DAG.
        """
        children = self._children
        cone = set(dirty)
        frontier = list(dirty)
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in cone:
                    cone.add(child)
                    frontier.append(child)
        return cone

    def _sweep(
        self,
        cone_order: List[ChangeId],
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
    ) -> None:
        """Recompute the cone's entries, in queue order.

        The same worklist fixpoint as
        :func:`~repro.speculation.probability.estimate_commit_probabilities`:
        with change reordering (section 10) the ancestor DAG need not
        follow queue order, so a change is deferred until every ancestor
        inside the cone has been recomputed.
        """
        entries = self._entries
        unswept = set(cone_order)
        remaining = cone_order
        while remaining:
            deferred: List[ChangeId] = []
            for change_id in remaining:
                if self._recompute(
                    entries[change_id], unswept, decided, changes_by_id
                ):
                    unswept.discard(change_id)
                else:
                    deferred.append(change_id)
            if len(deferred) == len(remaining):
                raise KeyError(
                    "ancestor cycle or missing ancestors for: "
                    + ", ".join(sorted(deferred)[:5])
                )
            remaining = deferred

    def _recompute(
        self,
        entry: _Entry,
        unswept: Set[ChangeId],
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
    ) -> bool:
        """``P_commit = P_succ · Π (1 - P_commit(a) · P_conf(a, C))`` over
        ``entry``'s ancestors in tuple order, asking ``P_conf`` only for an
        ancestor that can still commit.

        When the pending ancestors or their ``P_commit`` moved, the
        change's top value is recomputed and its enumerator dropped (the
        merge rebuilds it if it pops the change; an unchanged one keeps
        its memoized prefix).

        Returns ``False`` — ``P_commit`` not written — while an ancestor
        is unknown (pending but not yet recomputed this round, or neither
        pending nor decided).
        """
        entries = self._entries
        conflict = entry.p_conflict
        p = entry.p_success
        pending_ancestors: List[ChangeId] = []
        probabilities: List[float] = []
        for ancestor_id in entry.ancestors:
            verdict = decided.get(ancestor_id)
            if verdict is None:
                ancestor = entries.get(ancestor_id)
                if ancestor is None or ancestor_id in unswept:
                    return False
                p_ancestor = ancestor.p_commit
                pending_ancestors.append(ancestor_id)
                probabilities.append(p_ancestor)
                if not p_ancestor > 0.0:
                    continue
            elif verdict:
                p_ancestor = 1.0
            else:
                continue  # a rejected ancestor constrains nothing
            try:
                p_conflict = conflict[ancestor_id]
            except KeyError:  # first time this pair is needed
                p_conflict = self._p_conflict(entry, ancestor_id, changes_by_id)
            p *= 1.0 - p_ancestor * p_conflict
        entry.p_commit = min(1.0, max(0.0, p))

        pending = tuple(pending_ancestors)
        pending_p = tuple(probabilities)
        if pending != entry.pending or pending_p != entry.probabilities:
            entry.pending = pending
            entry.probabilities = pending_p
            entry.top = top_p_needed(pending_p) * entry.benefit
            entry.enumerator = None
        return True

    def _merge(
        self,
        order: List[ChangeId],
        budget: int,
        decided: Mapping[ChangeId, bool],
        changes_by_id: Mapping[ChangeId, Change],
    ) -> List[ScoredBuild]:
        """Pop the globally best builds off the per-change enumerators.

        A max-heap of ``(negated value, queue position, ...)`` holds one
        frontier node per pending change; the position tiebreak prefers
        earlier-submitted changes so equal-value builds respect queue
        order (Speculate-all degenerates to breadth-first this way).  A
        change enters the heap as its top value alone; only when the
        merge pops it is its enumerator built or replayed.
        """
        entries = self._entries
        heap: List[tuple] = [
            (-entry.top, position, 0, entry, None)
            for position, entry in enumerate(map(entries.__getitem__, order))
        ]
        heapq.heapify(heap)
        self._nodes_expanded = 0
        selected: List[ScoredBuild] = []
        while heap and len(selected) < budget:
            neg_value, position, index, entry, node = heapq.heappop(heap)
            if -neg_value < self._min_value:
                # The k-way merge pops values in non-increasing order, so
                # everything left is worthless too: stop, do not exhaust
                # the exponential enumerators.
                break
            if node is None:  # the change's first pop: its top build
                self._prepare_enumerator(entry, decided)
                node = self._node_at(entry, 0)
            successor = self._node_at(entry, index + 1)
            if successor is not None:
                # Positions are unique: the comparison never reaches the entry.
                heapq.heappush(
                    heap, (-successor.value, position, index + 1, entry, successor)
                )
            selected.append(self._score(node, entry, changes_by_id))
        return selected

    def _prepare_enumerator(
        self, entry: _Entry, decided: Mapping[ChangeId, bool]
    ) -> None:
        """Build ``entry``'s enumerator unless a current one carried over."""
        if entry.enumerator is not None:
            self.stats.enumerators_reused += 1
            return
        self.stats.enumerators_rebuilt += 1
        entry.enumerator = SubsetEnumerator(
            entry.change.change_id,
            entry.pending,
            dict(zip(entry.pending, entry.probabilities)),
            known_committed=frozenset(
                a for a in entry.ancestors if decided.get(a)
            ),
            benefit=entry.benefit,
        )

    def _node_at(self, entry: _Entry, index: int) -> Optional[SpeculationNode]:
        """``entry``'s ``index``-th best node, counted as replayed when it
        came from the enumerator's memoized prefix."""
        enumerator = entry.enumerator
        if index < enumerator.generated_count:
            self.stats.nodes_replayed += 1
            return enumerator.node_at(index)
        node = enumerator.node_at(index)
        if node is not None:
            self._nodes_expanded += 1
        return node

    def _record_selection(self, selected: Sequence[ScoredBuild]) -> None:
        """Publish one selection round's shape to the registry."""
        if self._metrics is None:
            self._metrics = _SelectionMetrics(self._recorder)
        metrics = self._metrics
        metrics.nodes_expanded.inc(self._nodes_expanded)
        metrics.selected.set(len(selected))
        for build in selected:
            metrics.value_hist.observe(build.value)
            metrics.p_needed_hist.observe(build.p_needed)

    def _score(
        self,
        node: SpeculationNode,
        entry: _Entry,
        changes_by_id: Mapping[ChangeId, Change],
    ) -> ScoredBuild:
        stacked = [a for a in entry.pending if a in node.key.assumed]
        # Both probabilities were already asked while estimating P_commit
        # (this round or a prior one); answer from the entry instead of
        # re-asking the predictor per selected build.
        conditional = conditional_success(
            entry.p_success,
            (self._p_conflict(entry, other, changes_by_id) for other in stacked),
        )
        return ScoredBuild(
            key=node.key,
            value=node.value,
            p_needed=node.p_needed,
            conditional_success=conditional,
        )
