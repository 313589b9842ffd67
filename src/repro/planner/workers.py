"""The worker pool.

Models the build fleet (Mac Minis in the paper's setup): a fixed number of
slots, each able to run one speculative build at a time.  Assignment is
history-based, the paper's section-6 load balancing: completed builds feed
an EWMA of per-change durations, a batch of starts is ordered
longest-processing-time-first over those estimates (the classic greedy
makespan heuristic), and each build then goes to the worker with the least
cumulative busy time — which is also the cold-start fallback when no
history exists yet.  Utilization and imbalance are tracked for the
throughput benches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import NoWorkerAvailableError
from repro.types import BuildKey, ChangeId


@dataclass
class _Worker:
    """One worker slot with its accounting."""

    index: int
    busy_with: Optional[BuildKey] = None
    busy_since: float = 0.0
    total_busy: float = 0.0
    builds_run: int = 0


class WorkerPool:
    """Fixed-capacity pool with history-based (EWMA + LPT) assignment.

    ``ewma_alpha`` weights the newest completed duration when updating a
    change's estimate; ``history_capacity`` bounds the per-change history
    map (LRU) so long simulations hold memory steady.
    """

    def __init__(
        self,
        capacity: int,
        ewma_alpha: float = 0.25,
        history_capacity: int = 4096,
    ) -> None:
        if capacity <= 0:
            raise ValueError("worker capacity must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if history_capacity <= 0:
            raise ValueError("history_capacity must be positive")
        self._workers: List[_Worker] = [_Worker(i) for i in range(capacity)]
        self._by_build: Dict[BuildKey, _Worker] = {}
        self._ewma_alpha = ewma_alpha
        self._history_capacity = history_capacity
        self._duration_ewma: "OrderedDict[ChangeId, float]" = OrderedDict()

    @property
    def capacity(self) -> int:
        return len(self._workers)

    @property
    def busy(self) -> int:
        return len(self._by_build)

    @property
    def free(self) -> int:
        return self.capacity - self.busy

    def is_running(self, key: BuildKey) -> bool:
        return key in self._by_build

    def running_builds(self) -> List[BuildKey]:
        return list(self._by_build)

    # -- duration history (section 6 load balancing) -------------------------

    def estimate(self, change_id: ChangeId) -> Optional[float]:
        """EWMA of the change's completed build durations, or ``None``."""
        return self._duration_ewma.get(change_id)

    def duration_history(self) -> "OrderedDict[ChangeId, float]":
        """A copy of the per-change EWMA history, in LRU order.

        The history is *backend-shared by construction*: builds executed
        in worker processes report raw step outcomes, the parent merges
        them into canonical durations at the batch quiescent point, and
        :meth:`release` feeds those durations here exactly as it does for
        inline builds.  No backend observes durations into a private
        pool — this accessor exists so tests (and operators) can assert
        that parity instead of trusting it.
        """
        return OrderedDict(self._duration_ewma)

    def observe_duration(self, change_id: ChangeId, minutes: float) -> None:
        """Feed one completed build's duration into the change's EWMA."""
        previous = self._duration_ewma.get(change_id)
        if previous is None:
            self._duration_ewma[change_id] = minutes
        else:
            self._duration_ewma[change_id] = (
                self._ewma_alpha * minutes + (1.0 - self._ewma_alpha) * previous
            )
        self._duration_ewma.move_to_end(change_id)
        while len(self._duration_ewma) > self._history_capacity:
            self._duration_ewma.popitem(last=False)

    def assignment_order(self, keys: Sequence[BuildKey]) -> List[BuildKey]:
        """``keys`` reordered longest-processing-time-first for assignment.

        Builds with historical estimates go first, longest first (the LPT
        greedy keeps the makespan within 4/3 of optimal); builds with no
        history keep their submitted order after them, where least-loaded
        placement alone balances them.  The sort is stable, so equal
        estimates preserve selection order and the result is deterministic.
        """
        if len(keys) <= 1:
            return list(keys)
        estimates = self._duration_ewma
        return sorted(
            keys,
            key=lambda key: -estimates.get(key.change_id, float("-inf")),
        )

    # -- assignment ----------------------------------------------------------

    def assign(self, key: BuildKey, now: float) -> int:
        """Assign a build to the least-loaded free worker; returns its index."""
        if key in self._by_build:
            raise ValueError(f"build {key.label()} already running")
        candidates = [w for w in self._workers if w.busy_with is None]
        if not candidates:
            raise NoWorkerAvailableError(key.label())
        worker = min(candidates, key=lambda w: (w.total_busy, w.index))
        worker.busy_with = key
        worker.busy_since = now
        worker.builds_run += 1
        self._by_build[key] = worker
        return worker.index

    def release(self, key: BuildKey, now: float, completed: bool = True) -> int:
        """Release the worker running ``key``; returns its index.

        ``completed=False`` (an abort) still accrues the worker's busy
        time but keeps the partial interval out of the duration history —
        an aborted build says nothing about how long the change builds.
        """
        worker = self._by_build.pop(key, None)
        if worker is None:
            raise KeyError(f"build {key.label()} not running")
        elapsed = max(0.0, now - worker.busy_since)
        worker.total_busy += elapsed
        worker.busy_with = None
        if completed:
            self.observe_duration(key.change_id, elapsed)
        return worker.index

    # -- accounting ----------------------------------------------------------

    def busy_minutes(self, now: float) -> float:
        """Worker minutes spent building up to ``now``, in-flight builds
        included."""
        total = 0.0
        for worker in self._workers:
            total += worker.total_busy
            if worker.busy_with is not None:
                total += max(0.0, now - worker.busy_since)
        return total

    def load_imbalance(self, now: Optional[float] = None) -> float:
        """Max-minus-min cumulative busy time across workers.

        With ``now`` given, in-flight builds count their elapsed time too,
        so the figure reflects the pool as it stands rather than only
        finished work.
        """
        if not self._workers:
            return 0.0
        totals = []
        for worker in self._workers:
            total = worker.total_busy
            if now is not None and worker.busy_with is not None:
                total += max(0.0, now - worker.busy_since)
            totals.append(total)
        return max(totals) - min(totals)
