"""Speculation nodes and lazy best-first enumeration.

For a change with ``k`` undecided conflicting ancestors there are ``2^k``
candidate builds — one per assumed-outcome subset.  The engine must find
the most valuable few *without* materializing the exponential tree
(section 7.1: greedy best-first, O(n) space).  :class:`SubsetEnumerator`
yields a change's builds in non-increasing ``P_needed`` order — a node's
``value``, the benefit being 1 — using the classic lazy top-k scheme over
independent bits:

* assign each ancestor its likelier outcome — that subset has the maximum
  probability;
* sort ancestors by flip cost ``r_i = min(p_i, 1-p_i) / max(p_i, 1-p_i)``
  (descending, cheapest flips first);
* explore flip-sets with a max-heap, generating from a state only
  "extend by next index" and "slide last index" children — every subset
  is reached exactly once, and heap order equals value order.

:func:`enumerate_tree` materializes the full node set for small inputs;
tests use it to reproduce the paper's Figures 5–7 structures and to check
the lazy enumerator against brute force.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.types import BuildKey, ChangeId


@dataclass(frozen=True)
class SpeculationNode:
    """One candidate build and its value, ``P_needed`` (Equations 1-5
    with every build's benefit 1)."""

    key: BuildKey
    value: float

    @property
    def change_id(self) -> ChangeId:
        return self.key.change_id


def _likelier_outcome(p: float) -> Tuple[bool, float]:
    """Whether an ancestor that commits with probability ``p`` (clamped
    to [0, 1]) more likely commits, and that outcome's probability."""
    p = min(1.0, max(0.0, p))
    return (True, p) if p >= 0.5 else (False, 1.0 - p)


def top_p_needed(commit_probabilities: Iterable[float]) -> float:
    """``P_needed`` of a change's most valuable build: every pending
    ancestor at its likelier outcome.

    This is the first node :class:`SubsetEnumerator` emits, so a caller
    can rank a change without building its enumerator.
    """
    probability = 1.0
    for p in commit_probabilities:
        # _likelier_outcome(p)[1] inline: clamped to [0, 1], an ancestor
        # at 0 or 1 (NaN clamps to 0) multiplies by 1.0, which is exact.
        if 0.0 < p < 1.0:
            probability *= p if p >= 0.5 else 1.0 - p
    return probability


class SubsetEnumerator:
    """Yields a change's builds in non-increasing ``P_needed`` order.

    ``known`` ancestors (already decided) are folded into every key:
    committed ones are always assumed, rejected ones never.

    Every generated node is memoized, so the enumerator can be *replayed*
    across planner epochs: :meth:`node_at` answers from the
    already-expanded prefix for free and only then resumes heap
    expansion.  The speculation engine keeps an enumerator while its
    inputs are unchanged — identical inputs generate an identical
    sequence, so replay is exactly equivalent to rebuilding from scratch.
    """

    def __init__(
        self,
        change_id: ChangeId,
        pending_ancestors: Sequence[ChangeId],
        commit_probabilities: Mapping[ChangeId, float],
        known_committed: FrozenSet[ChangeId] = frozenset(),
    ) -> None:
        self._change_id = change_id
        self._known_committed = known_committed

        likely: List[Tuple[float, ChangeId, bool]] = []
        base_probability = 1.0
        for ancestor_id in pending_ancestors:
            likelier, best = _likelier_outcome(commit_probabilities[ancestor_id])
            worst = 1.0 - best
            ratio = worst / best if best > 0.0 else 0.0
            base_probability *= best
            likely.append((ratio, ancestor_id, likelier))
        # Cheapest flips first: descending ratio.
        likely.sort(key=lambda item: -item[0])
        self._ratios = [item[0] for item in likely]
        self._ancestor_ids = [item[1] for item in likely]
        self._likelier = [item[2] for item in likely]
        self._base_probability = base_probability
        # Heap entries: (-probability, flip_tuple).  flip_tuple is a sorted
        # tuple of flipped indices; children extend or slide the last index.
        self._heap: List[Tuple[float, Tuple[int, ...]]] = [(-base_probability, ())]
        #: All nodes generated so far, in emission (non-increasing value)
        #: order; ``node_at`` reads this prefix before expanding more.
        self._nodes: List[SpeculationNode] = []
        self._cursor = 0

    def _probability_of(self, flips: Tuple[int, ...]) -> float:
        probability = self._base_probability
        for index in flips:
            probability *= self._ratios[index]
        return probability

    def _key_for(self, flips: Tuple[int, ...]) -> BuildKey:
        assumed = set(self._known_committed)
        flipped = set(flips)
        for index, ancestor_id in enumerate(self._ancestor_ids):
            assume_commit = self._likelier[index] ^ (index in flipped)
            if assume_commit:
                assumed.add(ancestor_id)
        return BuildKey(self._change_id, frozenset(assumed))

    @property
    def generated_count(self) -> int:
        """Nodes materialized so far (cached prefix length)."""
        return len(self._nodes)

    def _generate_next(self) -> Optional[SpeculationNode]:
        """Expand the heap by one node, memoizing it; None when exhausted."""
        if not self._heap:
            return None
        neg_probability, flips = heapq.heappop(self._heap)
        probability = -neg_probability
        n = len(self._ancestor_ids)
        last = flips[-1] if flips else -1
        # Child 1: extend with the next unflipped index.
        if last + 1 < n:
            extended = flips + (last + 1,)
            heapq.heappush(self._heap, (-self._probability_of(extended), extended))
        # Child 2: slide the last flipped index one right.
        if flips and last + 1 < n:
            slid = flips[:-1] + (last + 1,)
            heapq.heappush(self._heap, (-self._probability_of(slid), slid))
        node = SpeculationNode(key=self._key_for(flips), value=probability)
        self._nodes.append(node)
        return node

    def node_at(self, index: int) -> Optional[SpeculationNode]:
        """The ``index``-th node in value order, expanding lazily."""
        while len(self._nodes) <= index:
            if self._generate_next() is None:
                return None
        return self._nodes[index]

    def __iter__(self) -> Iterator[SpeculationNode]:
        return self

    def __next__(self) -> SpeculationNode:
        node = self.node_at(self._cursor)
        if node is None:
            raise StopIteration
        self._cursor += 1
        return node


def enumerate_tree(
    change_ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    commit_probabilities: Mapping[ChangeId, float],
    known_committed: FrozenSet[ChangeId] = frozenset(),
    max_ancestors: int = 16,
) -> List[SpeculationNode]:
    """Materialize *all* speculation nodes for a small pending set.

    For each change, emits one node per subset of its pending ancestors
    (``2^k`` nodes).  Used by tests and the figure-5/6/7 reproductions;
    refuses ancestor sets beyond ``max_ancestors`` to stay bounded.
    """
    nodes: List[SpeculationNode] = []
    for change_id, ancestors in change_ancestors.items():
        pending = [a for a in ancestors if a not in known_committed]
        if len(pending) > max_ancestors:
            raise ValueError(
                f"{change_id}: {len(pending)} ancestors exceeds "
                f"max_ancestors={max_ancestors}"
            )
        for size in range(len(pending) + 1):
            for subset in itertools.combinations(pending, size):
                probability = 1.0
                for ancestor_id in pending:
                    p = commit_probabilities[ancestor_id]
                    probability *= p if ancestor_id in subset else (1.0 - p)
                nodes.append(
                    SpeculationNode(
                        key=BuildKey(
                            change_id, frozenset(subset) | known_committed
                        ),
                        value=probability,
                    )
                )
    nodes.sort(key=lambda node: (-node.value, node.key))
    return nodes
