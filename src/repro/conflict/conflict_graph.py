"""The conflict graph over pending changes (paper sections 3.2 and 5).

Nodes are pending change ids; an undirected edge joins two changes that
potentially conflict.  The nodes, in submission order, are also the
pending queue — SubmitQueue's "illusion of a single queue" (section 3.2):
iteration and :meth:`ConflictGraph.in_order` walk them oldest first.

At submit the planner asks ``ancestors(c)``: the earlier pending changes
that conflict with ``c``, the only changes ``c`` must speculate on.  It
keeps that list on ``c``'s record, where reorders edit it and the
speculation engine reads it; changes in different connected components
never appear in each other's lists, so they build and commit fully in
parallel.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set

from repro.changes.change import Change
from repro.errors import UnknownChangeError
from repro.types import ChangeId

ConflictPredicate = Callable[[Change, Change], bool]


class ConflictGraph:
    """Incrementally maintained conflict graph over pending changes."""

    def __init__(self, conflict_predicate: ConflictPredicate) -> None:
        self._predicate = conflict_predicate
        #: Pending changes by id; insertion order is submission order.
        self._changes: Dict[ChangeId, Change] = {}
        self._order: Dict[ChangeId, int] = {}
        self._edges: Dict[ChangeId, Set[ChangeId]] = {}
        self._next_seq = 0

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._changes)

    def __contains__(self, change_id: ChangeId) -> bool:
        return change_id in self._changes

    def __iter__(self) -> Iterator[Change]:
        """Pending changes, oldest first."""
        return iter(self._changes.values())

    def change(self, change_id: ChangeId) -> Change:
        try:
            return self._changes[change_id]
        except KeyError:
            raise UnknownChangeError(change_id) from None

    def add(
        self,
        change: Change,
        candidate_ids: Optional[Iterable[ChangeId]] = None,
    ) -> Set[ChangeId]:
        """Add a pending change; returns the ids it conflicts with.

        Pairwise predicate calls happen once per (existing, new) pair; the
        analyzer behind the predicate caches everything heavier.

        ``candidate_ids`` restricts the sweep to those existing members
        (unknown ids are skipped).  The caller owns the soundness of the
        restriction — the analyzer's candidate index leaves out only
        pairs whose verdict is provably ``False`` — and the resulting
        edge set must equal the full sweep's.
        """
        if change.change_id in self._changes:
            raise ValueError(f"{change.change_id} already in conflict graph")
        if candidate_ids is None:
            pool = self._changes.items()
        else:
            pool = [
                (cid, self._changes[cid])
                for cid in candidate_ids
                if cid in self._changes
            ]
        neighbors: Set[ChangeId] = set()
        for other_id, other in pool:
            if self._predicate(change, other):
                neighbors.add(other_id)
        self._changes[change.change_id] = change
        self._order[change.change_id] = self._next_seq
        self._next_seq += 1
        self._edges[change.change_id] = neighbors
        for other_id in neighbors:
            self._edges[other_id].add(change.change_id)
        return neighbors

    def remove(self, change_id: ChangeId) -> None:
        """Remove a decided change and its edges."""
        self.change(change_id)
        for other_id in self._edges.pop(change_id, set()):
            self._edges[other_id].discard(change_id)
        del self._changes[change_id]
        del self._order[change_id]

    # -- queries --------------------------------------------------------------

    def neighbors(self, change_id: ChangeId) -> Set[ChangeId]:
        """Changes that potentially conflict with ``change_id``."""
        self.change(change_id)
        return set(self._edges[change_id])

    def ancestors(self, change_id: ChangeId) -> List[ChangeId]:
        """Earlier conflicting changes, in submit order.

        These are exactly the changes whose outcomes ``change_id`` must
        speculate over; independent changes never appear.
        """
        pivot = self._order[change_id]
        older = [
            other_id
            for other_id in self._edges[change_id]
            if self._order[other_id] < pivot
        ]
        older.sort(key=lambda cid: self._order[cid])
        return older

    @property
    def positions(self) -> Mapping[ChangeId, int]:
        """Each pending change's queue position (its submission sequence
        number); reorders edit ancestor lists, never positions."""
        return self._order

    def in_order(self) -> List[ChangeId]:
        """All pending change ids, oldest first."""
        return list(self._changes)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._edges.values()) // 2
