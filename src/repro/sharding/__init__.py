"""Target-graph-partitioned sharding (paper section 7.1, ROADMAP item 2).

The production SubmitQueue shards planning by Helix partition while
presenting "the illusion of a single queue" (section 3.2).  This package
is the reproduction's equivalent: the build-target graph is split into
connected components packed into a bounded number of partitions
(:mod:`repro.sharding.partition`), pending changes are routed to the
partition owning their touched paths (:mod:`repro.sharding.queue`), and
the conflict analyzer only sweeps a change's own partition plus the
cross-partition "straddlers" (:mod:`repro.sharding.analyzer`) — with
verdicts, commit order, and state fingerprints bit-identical to the
monolithic path.

Selection lives in exactly one place — :func:`create_queue_backend`,
mirroring :func:`repro.parallel.create_build_backend`.  The one spec is
``"sharded"`` / ``"sharded:N"``: a partition-aware queue plus a sharded
analyzer over ``N >= 1`` partitions (default 4).  The monolithic pair is
what the service builds when no spec is given.

This package is imported lazily: the default service path never touches
it (enforced by a dep-hygiene test), so selecting no backend costs
nothing.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.errors import ShardingError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sharding.analyzer import ShardedConflictAnalyzer
from repro.sharding.partition import PartitionerStats, TargetPartitioner
from repro.sharding.queue import (
    STRADDLER_SHARD,
    PartitionedPendingQueue,
    shard_label,
)
from repro.types import Path

__all__ = [
    "PartitionedPendingQueue",
    "PartitionerStats",
    "STRADDLER_SHARD",
    "ShardedConflictAnalyzer",
    "ShardingError",
    "TargetPartitioner",
    "create_queue_backend",
    "shard_label",
]

#: Partition count of a bare ``"sharded"`` spec.
DEFAULT_SHARDS = 4


def create_queue_backend(
    spec: str,
    base_snapshot: Mapping[Path, str],
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[ShardedConflictAnalyzer, PartitionedPendingQueue]:
    """Parse ``sharded[:N]`` and build the matched analyzer/queue pair.

    Bad specs raise :class:`~repro.errors.ShardingError` before anything
    is built.
    """
    name, colon, suffix = spec.partition(":")
    if name.strip().lower() != "sharded":
        raise ShardingError(
            f"unknown queue backend {spec!r} (expected sharded[:N])"
        )
    shards = DEFAULT_SHARDS
    if colon:
        if not suffix.isdecimal() or int(suffix) < 1:
            raise ShardingError(
                f"malformed queue backend spec {spec!r}: shard count must "
                "be a positive integer"
            )
        shards = int(suffix)
    analyzer = ShardedConflictAnalyzer(
        base_snapshot, recorder=recorder, shards=shards
    )
    queue = PartitionedPendingQueue(
        analyzer, shard_count=analyzer.shard_count, recorder=recorder
    )
    return analyzer, queue
