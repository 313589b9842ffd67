"""The event queue: a cancellable min-heap of timed callbacks.

Cancellation is lazy (the heap entry is tombstoned), which keeps both
``push`` and ``cancel`` O(log n) — important because every aborted
speculative build cancels its completion event.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


@dataclass
class EventHandle:
    """Returned by :meth:`EventQueue.push`; lets the owner cancel."""

    time: float
    seq: int
    payload: Any
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """Min-heap of (time, seq) ordered events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, payload: Any) -> EventHandle:
        """Schedule a payload at an absolute time."""
        handle = EventHandle(time=time, seq=next(self._seq), payload=payload)
        heapq.heappush(self._heap, (time, handle.seq, handle))
        self._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (idempotent)."""
        if not handle.cancelled:
            handle.cancel()
            self._live -= 1

    def pop(self) -> Optional[EventHandle]:
        """Earliest live event, or ``None`` when empty."""
        while self._heap:
            _, _, handle = heapq.heappop(self._heap)
            if not handle.cancelled:
                self._live -= 1
                return handle
        return None
