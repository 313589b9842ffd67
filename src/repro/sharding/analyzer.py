"""The partitioned conflict analyzer: same verdicts, smaller sweeps.

:class:`ShardedConflictAnalyzer` subclasses the monolithic
:class:`~repro.conflict.analyzer.ConflictAnalyzer` — one snapshot, one
hasher cache, one pair cache — and adds a routing layer over the
:class:`~repro.sharding.partition.TargetPartitioner`.  Each change is
routed by its touched paths:

* a path owned by targets in exactly one partition votes for that bin;
* a BUILD file, an unowned path, or a path owned by targets in several
  bins makes the change a **straddler** (``STRADDLER_SHARD``);
* a change whose paths vote for more than one bin is also a straddler.

**Soundness** (why skipping cross-shard pairs is exact, not heuristic):
let C1, C2 be routed to different non-straddler shards.

1. *No textual conflict*: ``three_way_conflicts`` needs a shared path.
   A shared owned path pins both changes to the same bin set; a shared
   unowned or BUILD path makes both straddlers.  Contradiction.
2. *Both are non-structural*: a structural change must touch a BUILD
   file (``reload_packages`` returns the base graph untouched
   otherwise), and BUILD-touching changes are straddlers.  So the
   monolithic analyzer takes the fast path: delta-name intersection.
3. *Empty intersection*: a non-structural delta is the reverse-dep
   closure of the touched targets — entirely inside the touched
   targets' connected components, hence inside the change's own bin.
   Different bins ⇒ disjoint components ⇒ disjoint names.

So the monolithic verdict for every skipped pair is ``False``, and the
sharded analyzer returns exactly that — decisions, commit order, and
state fingerprints stay bit-identical to the monolithic path.

The partitioner is maintained across head advances: after the parent
``advance_base`` swaps in a new base graph, :meth:`advance_base` runs
the incremental :meth:`~repro.sharding.partition.TargetPartitioner.refresh`
(re-clustering only the commit's undirected closure) and drops the route
memo only if partitioning actually changed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.buildsys.graph import BuildGraph
from repro.buildsys.loader import build_file_package
from repro.changes.change import Change
from repro.conflict.analyzer import ConflictAnalyzer
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sharding.partition import TargetPartitioner
from repro.sharding.queue import STRADDLER_SHARD
from repro.types import ChangeId, Path


class ShardedConflictAnalyzer(ConflictAnalyzer):
    """A :class:`ConflictAnalyzer` with partition routing and skip logic."""

    def __init__(
        self,
        base_snapshot: Mapping[Path, str],
        base_graph: Optional[BuildGraph] = None,
        recorder: Recorder = NULL_RECORDER,
        shards: int = 4,
    ) -> None:
        super().__init__(base_snapshot, base_graph, recorder)
        self.partitioner = TargetPartitioner(
            self._base_graph, max_partitions=shards
        )
        self._routes: Dict[ChangeId, int] = {}
        self._routes_version = self.partitioner.version
        #: Pairwise checks routing made unnecessary: the pairs the
        #: monolithic sweep tests that the queue's candidate narrowing
        #: never offered, plus any answered ``False`` by :meth:`conflict`
        #: directly — so ``stats.checks + pair_checks_skipped`` equals the
        #: monolithic check count.  Mirrored to the recorder when attached.
        self.pair_checks_skipped = 0
        self._skip_counter = (
            recorder.counter(
                "shard_pair_checks_skipped_total",
                "Pairwise conflict checks short-circuited by shard routing.",
            )
            if recorder.enabled
            else None
        )

    # -- routing ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """The partitioner version (the queue re-syncs when this bumps)."""
        return self.partitioner.version

    @property
    def shard_count(self) -> int:
        return self.partitioner.shard_count

    def _sync_routes(self) -> None:
        if self.partitioner.version != self._routes_version:
            self._routes_version = self.partitioner.version
            self._routes = {}

    def _route(self, change: Change) -> int:
        if change.patch is None:
            return STRADDLER_SHARD
        vote: Optional[int] = None
        for path in change.patch.paths:
            if build_file_package(path) is not None:
                return STRADDLER_SHARD  # structural risk: global shard
            bins = self.partitioner.shards_of_path(path)
            if len(bins) != 1:
                # Unowned path (possible textual-only conflicts) or a path
                # owned across bins: only the straddler shard is safe.
                return STRADDLER_SHARD
            (shard,) = bins
            if vote is None:
                vote = shard
            elif vote != shard:
                return STRADDLER_SHARD
        return vote if vote is not None else STRADDLER_SHARD

    def shard_of(self, change: Change) -> int:
        """The shard this change routes to (memoized per partitioning)."""
        self._sync_routes()
        cached = self._routes.get(change.change_id)
        if cached is None:
            cached = self._route(change)
            self._routes[change.change_id] = cached
        return cached

    def note_pairs_skipped(self, count: int) -> None:
        """Record ``count`` pair checks routing made unnecessary."""
        self.pair_checks_skipped += count
        if self._skip_counter is not None:
            self._skip_counter.inc(count)

    # -- analyzer surface ------------------------------------------------------

    def conflict(self, first: Change, second: Change) -> bool:
        if first.change_id != second.change_id:
            a = self.shard_of(first)
            b = self.shard_of(second)
            if (
                a != b
                and a != STRADDLER_SHARD
                and b != STRADDLER_SHARD
            ):
                # Provably disjoint (see module docstring): the monolithic
                # answer is False without analyzing either side.
                self.note_pairs_skipped(1)
                return False
        return super().conflict(first, second)

    def forget(self, change_id: ChangeId) -> None:
        super().forget(change_id)
        self._routes.pop(change_id, None)

    def advance_base(
        self,
        new_snapshot: Mapping[Path, str],
        committed_paths: Optional[Iterable[Path]] = None,
    ) -> None:
        old_graph = self._base_graph
        super().advance_base(new_snapshot, committed_paths)
        if self._base_graph is not old_graph:
            # The refresh diffs target definitions itself, so a rebuilt
            # graph object with identical structure costs a diff but no
            # re-clustering — and no version bump, so memoized routes and
            # the queue's shard index survive untouched.
            self.partitioner.refresh(self._base_graph)
        self._sync_routes()
