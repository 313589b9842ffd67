"""The partition-aware pending queue.

A change is routed to the partition owning its touched paths, and changes
whose paths span partitions (or touch BUILD files / unowned paths) land
in the global *straddler* shard.  The queue subclasses
:class:`~repro.changes.queue.PendingQueue`, so global submit order,
sequence numbers, snapshots, and state fingerprints are byte-identical
to the monolithic queue — sharding only adds an index over the same
pending set ("the illusion of a single queue", section 3.2).

The payoff is :meth:`conflict_candidates`: when the planner extends the
conflict graph for a new change it only needs to test members of the
change's own shard plus the straddlers — the router guarantees changes
routed to different non-straddler shards cannot conflict (see
``repro.sharding.analyzer`` for the proof sketch), so the per-change
sweep scales with the conflict neighborhood, not total pending.

Routing is pull-based: the router (the sharded analyzer) exposes a
``version`` that bumps when a structural commit repartitions the target
graph; the queue re-routes its pending members lazily on the next query,
so partitioner maintenance never walks the queue eagerly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.changes.change import Change
from repro.changes.queue import PendingQueue
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.types import ChangeId

#: The shard index of cross-partition changes (also BUILD-file and
#: unowned-path changes).  Straddlers are conflict candidates for every
#: shard, mirroring the paper's global coordination set.
STRADDLER_SHARD = -1

#: Metric label for the straddler shard.
STRADDLER_LABEL = "straddler"


def shard_label(shard: int) -> str:
    """The metrics/report label for one shard index."""
    return STRADDLER_LABEL if shard == STRADDLER_SHARD else str(shard)


class _QueueMetrics:
    """Hoisted recorder handles for per-enqueue shard instrumentation."""

    __slots__ = ("recorder", "imbalance", "straddler_depth", "reroutes", "_routed")

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.imbalance = recorder.gauge(
            "shard_imbalance",
            "Max-minus-min pending changes across non-straddler shards.",
        )
        self.straddler_depth = recorder.gauge(
            "shard_straddler_depth",
            "Pending changes in the global straddler shard.",
        )
        self.reroutes = recorder.counter(
            "shard_reroutes_total",
            "Pending changes re-routed after a repartition.",
        )
        self._routed: Dict[int, object] = {}

    def routed(self, shard: int):
        handle = self._routed.get(shard)
        if handle is None:
            handle = self.recorder.counter(
                "shard_changes_total",
                "Changes routed to each queue shard.",
                labels={"shard": shard_label(shard)},
            )
            self._routed[shard] = handle
        return handle


class PartitionedPendingQueue(PendingQueue):
    """A :class:`PendingQueue` with a partition index over its members."""

    def __init__(
        self,
        router,
        shard_count: int,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        """``router`` duck-types the sharded analyzer: ``shard_of(change)``
        returning a shard index (``STRADDLER_SHARD`` for straddlers), a
        monotonically increasing ``version`` property, and
        ``note_pairs_skipped(count)`` to account the narrowed-away pairs."""
        super().__init__()
        self.router = router
        self.shard_count = shard_count
        self._shard_of: Dict[ChangeId, int] = {}
        #: shard -> member ids in enqueue order, compacted lazily like
        #: the base class's ``_order``.
        self._members: Dict[int, List[ChangeId]] = {}
        self._router_version = getattr(router, "version", 0)
        self._metrics = _QueueMetrics(recorder) if recorder.enabled else None
        self._recorder = recorder

    # -- routing --------------------------------------------------------------

    def _route(self, change: Change) -> int:
        shard = self.router.shard_of(change)
        self._shard_of[change.change_id] = shard
        self._members.setdefault(shard, []).append(change.change_id)
        return shard

    def _sync_routes(self) -> None:
        """Re-route every pending member after a repartition (lazy)."""
        version = getattr(self.router, "version", 0)
        if version == self._router_version:
            return
        self._router_version = version
        self._shard_of = {}
        self._members = {}
        rerouted = 0
        for change in self:  # enqueue order, so member lists stay ordered
            self._route(change)
            rerouted += 1
        if self._metrics is not None and rerouted:
            self._metrics.reroutes.inc(rerouted)

    def shard_of(self, change_id: ChangeId) -> int:
        """The shard of one pending change."""
        self._sync_routes()
        return self._shard_of[change_id]

    # -- queue surface --------------------------------------------------------

    def enqueue(self, change: Change) -> int:
        seq = super().enqueue(change)
        self._sync_routes()
        shard = self._route(change)
        if self._metrics is not None:
            self._metrics.routed(shard).inc()
            self._observe_depths()
            self._recorder.event(
                "shard",
                category="sharding",
                track="service",
                change_id=change.change_id,
                shard=shard_label(shard),
            )
        return seq

    def remove(self, change_id: ChangeId) -> Change:
        change = super().remove(change_id)
        shard = self._shard_of.pop(change_id, None)
        if shard is not None:
            members = self._members.get(shard, [])
            live = sum(1 for cid in members if cid in self._by_id)
            if live * 2 < len(members):
                self._members[shard] = [
                    cid for cid in members if cid in self._by_id
                ]
        if self._metrics is not None:
            self._observe_depths()
        return change

    def all_pending(self) -> List[Change]:
        """All pending changes, in exact global submit order."""
        return self.in_order()

    # -- shard queries --------------------------------------------------------

    def shard_members(self, shard: int) -> List[Change]:
        """Pending members of one shard, in enqueue order."""
        self._sync_routes()
        return [
            self._by_id[cid]
            for cid in self._members.get(shard, [])
            if cid in self._by_id
        ]

    def straddlers(self) -> List[Change]:
        return self.shard_members(STRADDLER_SHARD)

    def shard_depths(self) -> Dict[int, int]:
        """Pending count per shard (straddler included under its index)."""
        self._sync_routes()
        depths: Dict[int, int] = {
            shard: 0 for shard in range(self.shard_count)
        }
        depths[STRADDLER_SHARD] = 0
        for change_id in self._by_id:
            depths[self._shard_of[change_id]] += 1
        return depths

    def imbalance(self) -> int:
        """Max-minus-min pending depth across non-straddler shards."""
        depths = self.shard_depths()
        regular = [
            depth
            for shard, depth in depths.items()
            if shard != STRADDLER_SHARD
        ]
        return max(regular) - min(regular) if regular else 0

    def conflict_candidates(self, change: Change) -> List[ChangeId]:
        """Pending ids the new ``change`` must be conflict-tested against.

        Same-shard members plus straddlers, in submit order; a straddler
        change tests against everything.  Changes routed to *other*
        non-straddler shards are provably non-conflicting, so skipping
        them leaves the conflict graph's edge set bit-identical to the
        monolithic sweep.

        Call once per change, right after enqueueing it (as the planner
        does): every other pending change is then older, the monolithic
        sweep would test all of them, and the ones left out here are
        reported to the router as skipped pair checks — the narrowing
        happens here, so those pairs never reach the analyzer to count.
        """
        self._sync_routes()
        shard = self._shard_of[change.change_id]
        if shard == STRADDLER_SHARD:
            return [
                c.change_id for c in self if c.change_id != change.change_id
            ]
        pool = [
            cid
            for cid in self._members.get(shard, [])
            if cid in self._by_id and cid != change.change_id
        ]
        pool.extend(
            cid
            for cid in self._members.get(STRADDLER_SHARD, [])
            if cid in self._by_id
        )
        pool.sort(key=self._sequence.__getitem__)
        self.router.note_pairs_skipped(len(self) - 1 - len(pool))
        return pool

    # -- instrumentation ------------------------------------------------------

    def _observe_depths(self) -> None:
        assert self._metrics is not None
        depths = self.shard_depths()
        self._metrics.straddler_depth.set(depths.get(STRADDLER_SHARD, 0))
        regular = [
            depth
            for shard, depth in depths.items()
            if shard != STRADDLER_SHARD
        ]
        self._metrics.imbalance.set(
            float(max(regular) - min(regular)) if regular else 0.0
        )
