"""Executor throughput: incremental vs from-scratch full-stack builds.

The incremental executor memoizes the base-side graph/hash work per
mainline head and folds each build's whole patch stack onto it in one
step: one copy-on-write overlay, one dirty-set rehash.  Nothing merged is
kept between builds, so "warm" here means *a memoized base context plus
a one-step derive* — what every build after the first on a head pays.
These benchmarks measure warm-vs-cold build latency against an unchanged
base at several speculation depths, builds/sec of sequential speculation
chains, and a figure-12-style end-to-end before/after cell; every
datapoint lands in
``BENCH_exec.json`` (the executor counterpart of ``BENCH_planner.json``).
"""

import time

import pytest

from benchmarks.conftest import record_bench
from repro.planner.controller import FullStackBuildController
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

SPEC = MonorepoSpec(layers=(8, 12, 16, 12, 8), fan_in=2)
WARM_DEPTHS = (0, 8)
CHAIN_DEPTHS = (1, 2, 4, 8, 16)


def _per_call(fn, calls: int, repeats: int) -> float:
    """Best-of-N mean seconds per call (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _chain(monorepo, depth: int, offset: int = 0):
    """``depth + 1`` clean changes over distinct targets (no merge conflicts)."""
    targets = monorepo.target_names()
    changes = [
        monorepo.make_clean_change(targets[(offset + i) % len(targets)])
        for i in range(depth + 1)
    ]
    return {change.change_id: change for change in changes}, [
        change.change_id for change in changes
    ]


def _controller(monorepo, incremental: bool) -> FullStackBuildController:
    # A private repository copy per controller: commits and caches must
    # not leak between the variants being compared.
    files = monorepo.repo.snapshot().to_dict()
    return FullStackBuildController(
        Repository(dict(files)), incremental=incremental
    )


@pytest.mark.parametrize("depth", WARM_DEPTHS)
def test_build_warm_vs_cold(depth, request):
    """Acceptance: warm builds >= 5x faster than cold at depth >= 8."""
    monorepo = SyntheticMonorepo(SPEC, seed=7)
    changes, ids = _chain(monorepo, depth)
    key = BuildKey(ids[-1], frozenset(ids[:-1]))
    warm_controller = _controller(monorepo, incremental=True)
    cold_controller = _controller(monorepo, incremental=False)
    warm_controller.execute(key, changes)  # prime the base context
    cold_controller.execute(key, changes)  # prime the artifact cache only

    warm = _per_call(lambda: warm_controller.execute(key, changes), 10, 5)
    cold = _per_call(lambda: cold_controller.execute(key, changes), 2, 5)
    speedup = cold / warm if warm else float("inf")
    record_bench(
        "exec",
        f"build_depth_{depth}",
        {
            "speculation_depth": depth,
            "targets": len(monorepo.target_names()),
            "cold_build_seconds": cold,
            "warm_build_seconds": warm,
            "cold_builds_per_sec": 1.0 / cold if cold else float("inf"),
            "warm_builds_per_sec": 1.0 / warm if warm else float("inf"),
            "speedup": speedup,
        },
    )
    if depth >= 8 and not request.config.getoption("--benchmark-disable"):
        assert speedup >= 5.0, f"warm build only {speedup:.1f}x faster than cold"


@pytest.mark.parametrize("depth", CHAIN_DEPTHS)
def test_speculation_chain_throughput(depth, request):
    """Sequential parent-then-child chains: one-step derive vs from-scratch.

    Each build extends the last one's stack — the case a merged-state
    cache would serve best and the one-step fold re-derives in full.
    """
    monorepo = SyntheticMonorepo(SPEC, seed=11)
    changes, ids = _chain(monorepo, depth)
    keys = [
        BuildKey(ids[i], frozenset(ids[:i])) for i in range(len(ids))
    ]

    def run(incremental: bool):
        controller = _controller(monorepo, incremental=incremental)
        start = time.perf_counter()
        for key in keys:
            execution = controller.execute(key, changes)
            assert execution.success
        return time.perf_counter() - start, controller.stats

    incremental_seconds, stats = run(incremental=True)
    scratch_seconds, _ = run(incremental=False)
    record_bench(
        "exec",
        f"chain_depth_{depth}",
        {
            "speculation_depth": depth,
            "builds": len(keys),
            "incremental_seconds": incremental_seconds,
            "scratch_seconds": scratch_seconds,
            "incremental_builds_per_sec": len(keys) / incremental_seconds,
            "scratch_builds_per_sec": len(keys) / scratch_seconds,
            "speedup": scratch_seconds / incremental_seconds,
            "targets_rehashed": stats.targets_rehashed,
            "base_context_loads": stats.base_context_loads,
        },
    )
    if depth >= 4 and not request.config.getoption("--benchmark-disable"):
        assert stats.base_context_loads == 1


def test_figure12_cell_before_after(request):
    """Figure-12-style end-to-end cell: one full-stack pump, both executors.

    The first datapoint of the perf trajectory: wall-clock seconds for a
    CoreService run (submit a batch, pump to empty) with the from-scratch
    executor vs the incremental one, identical workloads and decisions.
    """

    def run_cell(incremental: bool):
        monorepo = SyntheticMonorepo(SPEC, seed=23)
        targets = monorepo.target_names()
        service = CoreService(
            repo=monorepo.repo,
            strategy=SubmitQueueStrategy(
                StaticPredictor(success=0.9, conflict=0.05)
            ),
            config=CoreServiceConfig(workers=8),
            controller=FullStackBuildController(
                monorepo.repo, incremental=incremental
            ),
        )
        batch = [
            monorepo.make_clean_change(targets[i * 3 % len(targets)])
            for i in range(16)
        ]
        start = time.perf_counter()
        for change in batch:
            service.submit(change)
        decisions = service.pump()
        elapsed = time.perf_counter() - start
        assert monorepo.repo.is_green()
        return elapsed, decisions

    scratch_seconds, scratch_decisions = run_cell(incremental=False)
    incremental_seconds, incremental_decisions = run_cell(incremental=True)
    # Identical workload, identical verdicts: only the executor differs.
    assert [d.committed for d in incremental_decisions] == [
        d.committed for d in scratch_decisions
    ]
    record_bench(
        "exec",
        "figure12_cell",
        {
            "changes": 16,
            "workers": 8,
            "scratch_cell_seconds": scratch_seconds,
            "incremental_cell_seconds": incremental_seconds,
            "speedup": scratch_seconds / incremental_seconds,
            "decisions": len(incremental_decisions),
            "committed": sum(1 for d in incremental_decisions if d.committed),
        },
    )
    if not request.config.getoption("--benchmark-disable"):
        # The acceptance bar is "does not regress"; allow scheduler noise.
        assert incremental_seconds <= scratch_seconds * 1.10


def test_benchmark_warm_build_depth_8(benchmark):
    """pytest-benchmark kernel: the memoized-context warm build itself."""
    monorepo = SyntheticMonorepo(SPEC, seed=7)
    changes, ids = _chain(monorepo, 8)
    key = BuildKey(ids[-1], frozenset(ids[:-1]))
    controller = _controller(monorepo, incremental=True)
    controller.execute(key, changes)
    benchmark(controller.execute, key, changes)
    assert controller.stats.base_context_reuses > 0
