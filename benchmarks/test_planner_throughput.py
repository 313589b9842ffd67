"""Planner throughput: warm (fingerprint-skip) vs cold plan() epochs.

The incremental planner answers a no-input-change epoch from its plan
fingerprint without touching the strategy, and answers a one-change
perturbation from the dirty-set sweep plus enumerator carry-over.  These
benchmarks measure both against the from-scratch path at several queue
depths and record the datapoints into ``BENCH_planner.json`` (the planner
counterpart of ``BENCH_conflict.json``).
"""

import time

import pytest

from benchmarks.conftest import record_bench
from repro.changes.state import ChangeRecord
from repro.changes.truth import potential_conflict
from repro.conflict.conflict_graph import ConflictGraph
from repro.experiments.runner import make_stream
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.planner.workers import WorkerPool
from repro.predictor.predictors import StaticPredictor
from repro.speculation.engine import SpeculationEngine
from repro.strategies.submitqueue import SubmitQueueStrategy

QUEUE_DEPTHS = (16, 64, 256)
WORKERS = 32


def _per_call(fn, calls: int, repeats: int) -> float:
    """Best-of-N mean seconds per call (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _make_planner(depth: int, seed: int = 29) -> PlannerEngine:
    planner = PlannerEngine(
        strategy=SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        controller=LabelBuildController(),
        workers=WorkerPool(WORKERS),
        conflict_predicate=potential_conflict,
    )
    for minute, change in make_stream(500, depth, seed=seed):
        planner.submit(change, minute)
    # Prime: fills the worker pool and snapshots the epoch fingerprint.
    planner.plan(0.0)
    return planner


@pytest.mark.parametrize("depth", QUEUE_DEPTHS)
def test_plan_warm_vs_cold(depth, request):
    """Acceptance: warm plan() >= 10x faster than cold at depth >= 64."""
    planner = _make_planner(depth)
    skipped_before = planner.stats.plan_calls_skipped

    def warm_plan():
        planner.plan(0.0)

    def cold_plan():
        planner.invalidate_plan_cache()
        planner.plan(0.0)

    warm = _per_call(warm_plan, calls=50, repeats=5)
    assert planner.stats.plan_calls_skipped > skipped_before

    cold = _per_call(cold_plan, calls=1, repeats=5)
    speedup = cold / warm if warm else float("inf")
    record_bench(
        "planner",
        f"plan_depth_{depth}",
        {
            "queue_depth": depth,
            "workers": WORKERS,
            "cold_plan_seconds": cold,
            "warm_plan_seconds": warm,
            "cold_epochs_per_sec": 1.0 / cold if cold else float("inf"),
            "warm_epochs_per_sec": 1.0 / warm if warm else float("inf"),
            "speedup": speedup,
        },
    )
    if depth >= 64 and not request.config.getoption("--benchmark-disable"):
        assert speedup >= 10.0, f"warm plan only {speedup:.1f}x faster than cold"


def test_engine_dirty_one_change(request):
    """One counter bump: dirty-cone resweep + enumerator reuse vs cold."""
    depth = 256
    changes = [change for _, change in make_stream(500, depth, seed=31)]
    graph = ConflictGraph(potential_conflict)
    for change in changes:
        graph.add(change)
    ancestors = {c.change_id: graph.ancestors(c.change_id) for c in changes}
    records = {c.change_id: ChangeRecord(change=c) for c in changes}
    changes_by_id = {c.change_id: c for c in changes}
    engine = SpeculationEngine(StaticPredictor(success=0.9, conflict=0.05))

    def select():
        return engine.select_builds(
            pending=changes,
            ancestors=ancestors,
            records=records,
            decided={},
            budget=WORKERS,
            changes_by_id=changes_by_id,
        )

    select()  # prime the carry-over
    victim = records[changes[0].change_id]

    def dirty_select():
        victim.speculations_succeeded += 1
        select()

    def cold_select():
        engine.invalidate_carry_over()
        select()

    incremental = _per_call(dirty_select, calls=20, repeats=3)
    reused = engine.stats.commit_prob_reused
    recomputed = engine.stats.commit_prob_recomputed
    cold = _per_call(cold_select, calls=1, repeats=3)
    speedup = cold / incremental if incremental else float("inf")
    record_bench(
        "planner",
        "engine_dirty_one_change",
        {
            "queue_depth": depth,
            "budget": WORKERS,
            "cold_select_seconds": cold,
            "incremental_select_seconds": incremental,
            "speedup": speedup,
            "commit_prob_reuse_rate": (
                reused / (reused + recomputed) if reused + recomputed else 0.0
            ),
        },
    )
    if not request.config.getoption("--benchmark-disable"):
        assert speedup >= 1.5, f"dirty-set replan only {speedup:.1f}x faster"


def test_benchmark_warm_plan_depth_64(benchmark):
    """pytest-benchmark kernel: the fingerprint-skip epoch itself."""
    planner = _make_planner(64)
    benchmark(planner.plan, 0.0)
    assert planner.stats.plan_calls_skipped > 0
