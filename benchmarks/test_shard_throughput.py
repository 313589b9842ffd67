"""Sharded conflict analysis: warm per-change sweep latency at deep queues.

The paper's production deployment shards SubmitQueue by Helix partition
(section 7.1) because the per-change conflict sweep scales with total
pending.  This benchmark reproduces that effect on the reproduction's
target-graph partitioner: an 8-island monorepo with 256 pending changes,
where the monolithic analyzer pair-tests each new change against *every*
earlier pending change while the partition-sharded queue tests only the
change's own shard plus straddlers.

Acceptance at the deep cell (256 pending, 8 partitions): the sharded
warm per-change analyze+sweep time must be >= 2x faster, and a mirrored
end-to-end service run must land the *same* changes with zero red
commits and a bit-identical state fingerprint — sharding buys latency,
never decisions.

A service-path smoke variant always runs (and is the CI gate): the
figure-12 cell under ``sharded:4`` must produce a state fingerprint
bit-identical to the monolithic queue.  Every datapoint lands in
``benchmarks/results/BENCH_shard.json``.
"""

import copy
import os
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.experiments.runner import format_table
from repro.parallel import workload
from repro.sharding import create_queue_backend
from repro.sharding.workload import mint_partitioned_cell

#: The deep cell: pending depth, island count, shard count.
PENDING_DEPTH = 256
ISLANDS = 8
SHARDS = 8
#: Acceptance floor: warm sharded sweep vs warm monolithic sweep.
SPEEDUP_FLOOR = 2.0

_SMOKE_ONLY = os.environ.get("SHARD_BENCH_SMOKE") == "1"


def _mint_deep_cell():
    return mint_partitioned_cell(
        islands=ISLANDS,
        seed=1911,
        count=PENDING_DEPTH,
        layers=(3, 4, 3),
        files_per_target=4,
    )


def _time_sweep(files, changes, sharded):
    """Warm per-change analyze+sweep seconds over the full pending set.

    Mirrors the planner's submit path — enqueue the change, analyze it,
    then extend the conflict graph against everything already pending —
    with analyses (and shard routes) pre-warmed so the timed region
    isolates the pairwise sweep the monolithic path spends O(pending) on.
    """
    if sharded:
        analyzer, queue = create_queue_backend(f"sharded:{SHARDS}", dict(files))
    else:
        analyzer = ConflictAnalyzer(dict(files))
        queue = None
    batch = copy.deepcopy(changes)
    for change in batch:
        analyzer.analyze(change)  # warm the per-change caches
        if queue is not None:
            analyzer.shard_of(change)
    graph = ConflictGraph(analyzer.conflict)
    started = time.perf_counter()
    for change in batch:
        analyzer.analyze(change)
        if queue is not None:
            queue.enqueue(change)
            graph.add(change, queue.conflict_candidates(change))
        else:
            graph.add(change)
    wall = time.perf_counter() - started
    checks = analyzer.stats.checks
    skipped = getattr(analyzer, "pair_checks_skipped", 0)
    return wall, checks, skipped


def _run_service_cell(files, changes, queue_backend):
    return workload.run_cell(
        files, copy.deepcopy(changes), service_workers=8,
        queue_backend=queue_backend,
    )


@pytest.mark.skipif(
    _SMOKE_ONLY, reason="SHARD_BENCH_SMOKE=1 runs only the smoke cell"
)
def test_shard_sweep_speedup_deep_queue():
    """Acceptance: >= 2x warm sweep at 256 pending over 8 partitions."""
    files, changes = _mint_deep_cell()
    mono_wall, mono_checks, _ = _time_sweep(files, changes, sharded=False)
    shard_wall, shard_checks, skipped = _time_sweep(
        files, changes, sharded=True
    )
    # Every pair the monolithic sweep tests is either tested or skipped.
    assert shard_checks + skipped == mono_checks
    speedup = mono_wall / shard_wall if shard_wall > 0 else float("inf")
    mono_ms = mono_wall * 1000.0 / len(changes)
    shard_ms = shard_wall * 1000.0 / len(changes)

    # The narrowed sweep must be exact, not heuristic: identical edges.
    mono_service = _run_service_cell(files, changes, None)
    shard_service = _run_service_cell(files, changes, f"sharded:{SHARDS}")
    assert shard_service.fingerprint == mono_service.fingerprint
    assert shard_service.decisions == mono_service.decisions
    assert shard_service.committed == mono_service.committed == len(changes)
    assert mono_service.mainline_green and shard_service.mainline_green

    record_bench(
        "shard",
        f"deep_queue_p{PENDING_DEPTH}_s{SHARDS}",
        {
            "pending": len(changes),
            "islands": ISLANDS,
            "shards": SHARDS,
            "mono_per_change_ms": round(mono_ms, 4),
            "sharded_per_change_ms": round(shard_ms, 4),
            "warm_speedup": round(speedup, 3),
            "mono_pair_checks": mono_checks,
            "sharded_pair_checks": shard_checks,
            "pair_checks_skipped": skipped,
            "landed": shard_service.committed,
            "red_commits": 0,
            "floor": SPEEDUP_FLOOR,
        },
    )
    emit(
        "shard_throughput",
        format_table(
            ("mode", "per-change ms", "pair checks", "landed", "fingerprint"),
            [
                ("monolithic", f"{mono_ms:.3f}", mono_checks,
                 mono_service.committed, mono_service.fingerprint[:12]),
                (f"sharded:{SHARDS}", f"{shard_ms:.3f}", shard_checks,
                 shard_service.committed, shard_service.fingerprint[:12]),
            ],
            title=(
                f"sharded sweep @ {len(changes)} pending over {ISLANDS} "
                f"islands ({speedup:.2f}x warm, {skipped} pair checks "
                "skipped, fingerprints identical)"
            ),
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm sweep speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_sharded_fingerprint_smoke():
    """CI cell: figure-12 under sharded:4 is bit-identical to monolithic."""
    files, changes = workload.mint_cell(seed=7, count=12)
    plain = workload.run_cell(files, copy.deepcopy(changes), service_workers=4)
    sharded = workload.run_cell(
        files, copy.deepcopy(changes), service_workers=4,
        queue_backend="sharded:4",
    )
    record_bench(
        "shard",
        "smoke_fingerprint",
        {
            "plain_fingerprint": plain.fingerprint,
            "sharded_fingerprint": sharded.fingerprint,
            "identical": sharded.fingerprint == plain.fingerprint,
            "landed": sharded.committed,
        },
    )
    emit(
        "shard_throughput_smoke",
        format_table(
            ("mode", "landed", "builds", "fingerprint"),
            [
                ("monolithic", plain.committed, plain.builds_started,
                 plain.fingerprint[:12]),
                ("sharded:4", sharded.committed, sharded.builds_started,
                 sharded.fingerprint[:12]),
            ],
            title="sharded-queue bit-identity smoke (service path)",
        ),
    )
    assert sharded.fingerprint == plain.fingerprint
    assert sharded.decisions == plain.decisions
    assert sharded.committed == len(changes)
    assert sharded.mainline_green
