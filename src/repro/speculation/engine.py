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
   decreasing value) the first time the merge pops it;
4. returns the popped nodes
   (:class:`~repro.speculation.tree.SpeculationNode`) themselves: a
   build's key and value are all its callers read.

Memory stays O(pending changes + budget): only one frontier node per
change lives in the merge heap (the greedy best-first property called
out in section 7.1).

Selection is *incremental across epochs*: the engine keeps one table
entry per pending change — its record (whose ``ancestors`` list is the
one the planner edits), ``P_succ``, the ``P_conf`` of each ancestor asked
so far, ``P_commit``, its pending ancestors with their ``P_commit``, its
top value and, once popped, its enumerator — plus an ancestor → children
index over the pending changes.  The caller tells it what moved
(:meth:`SpeculationEngine.on_submit`, :meth:`~SpeculationEngine.on_decision`,
:meth:`~SpeculationEngine.on_reorder`,
:meth:`~SpeculationEngine.on_build_finished`); each call updates the
table and marks the changes whose own ``P_commit`` inputs moved *dirty*.
A round

* re-asks ``P_succ`` of the changes whose counters moved, and dirties one
  only when the answer differs bit for bit from the held one;
* walks the dirty set's downstream cone through the children index and
  re-sweeps ``P_commit`` only there, in queue order, reusing every other
  value bit-for-bit (``commit_prob_reused_total``) — a round in which
  nothing moved sweeps an empty cone;
* drops a cone member's enumerator only when its pending ancestors or
  their ``P_commit`` moved; everything else keeps its enumerator —
  memoized prefix and heap state — untouched.

An engine without a table (new, or after
:meth:`~SpeculationEngine.invalidate_carry_over`) ignores those calls and
builds its table from the inputs of the first round or batch plan that
reaches it: state written without the calls (a snapshot restore) is
picked up whole.

Incremental selection is bit-identical to from-scratch selection: every
reused value was produced by the same deterministic recurrence the
from-scratch path would re-run.  This assumes the predictor is
deterministic in ``(change, speculation counters)`` for ``p_success``
and in the change pair for ``p_conflict`` — true of every predictor in
this repo (the learned one caches on exactly those).

A build's value is the paper's ``V = B · P_needed`` with the benefit
``B ≡ 1`` of its evaluation, so a value *is* the build's ``P_needed``.
:meth:`SpeculationEngine.plan_risk_batches` answers the risk-batching
strategy from the same table: each batch is its member ids, nothing
more.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Dict,
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
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import UNIT_BUCKETS, metric_field
from repro.predictor.predictors import Predictor
from repro.speculation.batching import plan_batches
from repro.speculation.probability import estimate_commit_probabilities
from repro.speculation.tree import SpeculationNode, SubsetEnumerator, top_p_needed
from repro.types import ChangeId


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


class _Entry:
    """What selection keeps about one pending change across rounds."""

    __slots__ = (
        "record",
        "p_success",
        "p_conflict",
        "p_commit",
        "pending",
        "probabilities",
        "top",
        "enumerator",
    )

    def __init__(self, record: ChangeRecord) -> None:
        #: ``record.ancestors``: *all* conflicting predecessors, pending or
        #: decided, in the caller's order.
        self.record = record
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


class SpeculationEngine:
    """Selects the most valuable speculative builds under a budget."""

    #: Builds worth less than this are never selected.
    MIN_VALUE = 1e-9

    def __init__(self, predictor: Predictor) -> None:
        self._predictor = predictor
        #: Nodes generated during the current selection round.
        self._nodes_expanded = 0
        self.bind_recorder(NULL_RECORDER)

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach an observability recorder (planner-injected, once per
        planner); the stats and the table start over."""
        self._recorder = recorder
        self._metrics: Optional[_SelectionMetrics] = None
        self.stats = SpeculationEngineStats()
        recorder.expose(self.stats)
        self.invalidate_carry_over()

    def invalidate_carry_over(self) -> None:
        """Drop the table; the next round or batch plan builds it from its
        inputs, and calls until then are ignored."""
        #: One entry per pending change (see the module docstring), or
        #: ``None`` while there is no table.
        self._entries: Optional[Dict[ChangeId, _Entry]] = None
        #: Pending ancestor -> the pending changes that list it.
        self._children: Dict[ChangeId, Set[ChangeId]] = {}
        #: Pending changes whose own ``P_commit`` inputs moved since the
        #: last round.
        self._dirty: Set[ChangeId] = set()
        #: Pending changes whose ``P_succ`` must be (re)asked: new ones,
        #: and those a finished build moved the counters of.
        self._stale: Set[ChangeId] = set()

    # -- what moved ---------------------------------------------------------

    def on_submit(self, record: ChangeRecord) -> None:
        """A change arrived, listing pending ancestors only."""
        entries = self._entries
        if entries is None:
            return
        change_id = record.change_id
        entries[change_id] = _Entry(record)
        self._index(change_id)
        self._dirty.add(change_id)
        self._stale.add(change_id)

    def on_decision(self, change_id: ChangeId) -> None:
        """A pending change was decided and left the queue."""
        entries = self._entries
        if entries is None:
            return
        children = self._children
        for ancestor_id in entries.pop(change_id).record.ancestors:
            siblings = children.get(ancestor_id)
            if siblings is not None:
                siblings.discard(change_id)
        # Its children now see it as certain (0.0 or 1.0).
        self._dirty.update(children.pop(change_id, ()))
        self._dirty.discard(change_id)
        self._stale.discard(change_id)

    def on_reorder(self, ahead_id: ChangeId, behind_id: ChangeId) -> None:
        """``ahead_id`` left ``behind_id``'s ancestor list and
        ``behind_id`` joined ``ahead_id``'s (both pending)."""
        if self._entries is None:
            return
        children = self._children
        children[ahead_id].discard(behind_id)
        children.setdefault(behind_id, set()).add(ahead_id)
        self._dirty.update((ahead_id, behind_id))
        # ``ahead``'s enumerator folded in the committed ancestors it had.
        # Should ``behind`` be decided before the next round, ``ahead``'s
        # pending ancestors read as they did, so the recompute would keep
        # an enumerator that misses the new committed one.
        self._entries[ahead_id].enumerator = None

    def on_build_finished(self, change_id: ChangeId) -> None:
        """A finished build moved a pending change's speculation counters."""
        if self._entries is not None:
            self._stale.add(change_id)

    def _index(self, change_id: ChangeId) -> None:
        """Enter ``change_id`` in its pending ancestors' children sets."""
        entries = self._entries
        children = self._children
        for ancestor_id in entries[change_id].record.ancestors:
            if ancestor_id in entries:
                children.setdefault(ancestor_id, set()).add(change_id)

    def _table(
        self,
        pending: Sequence[Change],
        records: Mapping[ChangeId, ChangeRecord],
    ) -> Dict[ChangeId, _Entry]:
        """The table, built from ``pending`` and ``records`` when there is
        none: every entry new, dirty and stale."""
        entries = self._entries
        if entries is None:
            entries = self._entries = {
                change.change_id: _Entry(records[change.change_id])
                for change in pending
            }
            for change_id in entries:
                self._index(change_id)
            self._dirty.update(entries)
            self._stale.update(entries)
        return entries

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
        pending: Sequence[Change],
        records: Mapping[ChangeId, ChangeRecord],
        changes_by_id: Mapping[ChangeId, Change],
        batch_size: int,
        member_confidence: float,
        max_pair_conflict: float,
        min_joint_success: float,
    ) -> List[Tuple[ChangeId, ...]]:
        """Greedy jointly-low-risk batches over ``candidates``, each its
        members in submission order.

        ``candidates`` must be pending changes whose conflicting ancestors
        are all decided, in submission order (the strategy layer enforces
        eligibility).  Probabilities are read from and kept in the table
        entries the selection path uses (``pending`` and ``records`` build
        it if there is none), so batch planning never re-asks the
        predictor for an answer selection already paid for.
        """
        if len(candidates) < 2:
            return []
        entries = self._table(pending, records)
        self._ask_p_success(candidates)

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
            batch_size=batch_size,
            member_confidence=member_confidence,
            max_pair_conflict=max_pair_conflict,
            min_joint_success=min_joint_success,
        )

    def _ask_p_success(self, change_ids: Iterable[ChangeId]) -> None:
        """Refresh ``P_succ`` of the stale ones among ``change_ids``, in
        their order, in one vectorized call when the predictor has one.

        Predictors exposing ``p_success_many`` (the learned one routes it
        through ``LogisticRegression.predict_many``) answer all of them
        with a single matrix pass instead of one sigmoid per change.

        Only an answer that differs from the held value, bit for bit,
        moves the entry: a predictor blind to the counters (the static
        one) re-answers every completed speculation with the same number,
        and nothing downstream of it has to be re-swept.
        """
        stale = self._stale
        if not stale:
            return
        entries = self._entries
        asked = [entries[cid] for cid in change_ids if cid in stale]
        if not asked:
            return
        many = getattr(self._predictor, "p_success_many", None)
        if many is not None:
            pairs = [(entry.record.change, entry.record) for entry in asked]
            values = [float(value) for value in many(pairs)]
        else:
            values = [
                self._predictor.p_success(entry.record.change, entry.record)
                for entry in asked
            ]
        for entry, value in zip(asked, values):
            change_id = entry.record.change_id
            stale.discard(change_id)
            if value != entry.p_success:
                entry.p_success = value
                self._dirty.add(change_id)

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
                changes_by_id[other_id], entry.record.change
            )
        return value

    # -- selection ----------------------------------------------------------

    def select_builds(
        self,
        pending: Sequence[Change],
        records: Mapping[ChangeId, ChangeRecord],
        decided: Mapping[ChangeId, bool],
        budget: int,
        changes_by_id: Optional[Mapping[ChangeId, Change]] = None,
    ) -> List[SpeculationNode]:
        """The top-``budget`` builds by value, best first.

        ``pending`` must be in submission order.  ``records`` covers the
        pending changes; ``records[c].ancestors`` lists *all* of ``c``'s
        conflicting predecessors (pending or decided).  ``decided`` maps
        decided change ids to whether they committed.  ``changes_by_id``
        must cover pending changes *and* decided ancestors; it defaults to
        the pending set, which suffices only when nothing has been decided
        yet.

        A carried table trusts the ``on_*`` calls to have told it every
        change to these inputs since the previous round.
        """
        if budget <= 0:
            return []
        if changes_by_id is None:
            changes_by_id = {change.change_id: change for change in pending}
        order = [change.change_id for change in pending]
        stats = self.stats
        stats.selections += 1
        try:
            self._table(pending, records)
            self._ask_p_success(order)
            dirty = self._dirty
            cone_order: List[ChangeId] = []
            if dirty:
                cone = self._downstream_cone(dirty)
                cone_order = [cid for cid in order if cid in cone]
                self._sweep(cone_order, decided, changes_by_id)
                dirty.clear()
            selected = self._merge(order, budget, decided)
        except Exception:
            # A round that fails half-way leaves entries whose dirtiness is
            # forgotten; the next round must not trust any of them.
            self.invalidate_carry_over()
            raise
        stats.commit_prob_recomputed += len(cone_order)
        stats.commit_prob_reused += len(order) - len(cone_order)
        if self._recorder.enabled:
            self._record_selection(selected)
        return selected

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
        ``entry``'s ancestors in list order, asking ``P_conf`` only for an
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
        for ancestor_id in entry.record.ancestors:
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
            entry.top = top_p_needed(pending_p)
            entry.enumerator = None
        return True

    def _merge(
        self,
        order: List[ChangeId],
        budget: int,
        decided: Mapping[ChangeId, bool],
    ) -> List[SpeculationNode]:
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
        selected: List[SpeculationNode] = []
        while heap and len(selected) < budget:
            neg_value, position, index, entry, node = heapq.heappop(heap)
            if -neg_value < self.MIN_VALUE:
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
            selected.append(node)
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
            entry.record.change_id,
            entry.pending,
            dict(zip(entry.pending, entry.probabilities)),
            known_committed=frozenset(
                a for a in entry.record.ancestors if decided.get(a)
            ),
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

    def _record_selection(self, selected: Sequence[SpeculationNode]) -> None:
        """Publish one selection round's shape to the registry."""
        if self._metrics is None:
            self._metrics = _SelectionMetrics(self._recorder)
        metrics = self._metrics
        metrics.nodes_expanded.inc(self._nodes_expanded)
        metrics.selected.set(len(selected))
        for build in selected:
            metrics.value_hist.observe(build.value)
