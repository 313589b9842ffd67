"""The pending-change queue.

:class:`PendingQueue` is the logical single queue SubmitQueue presents
("the illusion of a single queue", section 3.2): strict arrival order with
removal on decision.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.changes.change import Change
from repro.errors import UnknownChangeError
from repro.types import ChangeId


class PendingQueue:
    """FIFO of pending changes with O(1) membership and stable order."""

    def __init__(self) -> None:
        self._order: List[ChangeId] = []
        self._by_id: Dict[ChangeId, Change] = {}
        self._sequence: Dict[ChangeId, int] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, change_id: ChangeId) -> bool:
        return change_id in self._by_id

    def __iter__(self) -> Iterator[Change]:
        """Pending changes in enqueue order."""
        return (self._by_id[cid] for cid in self._order if cid in self._by_id)

    def enqueue(self, change: Change) -> int:
        """Append a change; returns its global sequence number."""
        if change.change_id in self._by_id:
            raise ValueError(f"change {change.change_id} already enqueued")
        self._order.append(change.change_id)
        self._by_id[change.change_id] = change
        seq = self._next_seq
        self._sequence[change.change_id] = seq
        self._next_seq += 1
        return seq

    def remove(self, change_id: ChangeId) -> Change:
        """Remove a decided change (position bookkeeping is lazy)."""
        try:
            change = self._by_id.pop(change_id)
        except KeyError:
            raise UnknownChangeError(change_id) from None
        if len(self._by_id) * 2 < len(self._order):
            self._order = [cid for cid in self._order if cid in self._by_id]
        return change

    def get(self, change_id: ChangeId) -> Change:
        try:
            return self._by_id[change_id]
        except KeyError:
            raise UnknownChangeError(change_id) from None

    def sequence_of(self, change_id: ChangeId) -> int:
        """Arrival sequence number (stable even after removal of others)."""
        try:
            return self._sequence[change_id]
        except KeyError:
            raise UnknownChangeError(change_id) from None

    def head(self) -> Optional[Change]:
        """Oldest pending change, or ``None`` when empty."""
        for cid in self._order:
            if cid in self._by_id:
                return self._by_id[cid]
        return None

    def in_order(self) -> List[Change]:
        return list(self)

