"""Microbenchmarks of the hot kernels (section 7.1's scalability story).

These time the pieces that must stay cheap for SubmitQueue to scale to
hundreds of pending changes: Algorithm-1 hashing (cold and dirty-set
incremental), per-change conflict analysis (cold and carried-over),
union-graph conflict checks, lazy speculation enumeration, engine
selection, and conflict-graph maintenance.  The warm-vs-cold pairs also
record machine-readable datapoints into ``BENCH_conflict.json``.
"""

import time

import pytest

from benchmarks.conftest import record_bench
from repro.buildsys.hashing import TargetHasher, incremental_hashes
from repro.buildsys.loader import load_build_graph
from repro.conflict.analyzer import ConflictAnalyzer
from repro.speculation.tree import SubsetEnumerator
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


@pytest.fixture(scope="module")
def big_monorepo():
    return SyntheticMonorepo(MonorepoSpec(layers=(8, 16, 32, 32), fan_in=3), seed=1)


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn`` in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_benchmark_target_hashing(benchmark, big_monorepo):
    snapshot = big_monorepo.repo.snapshot().to_dict()
    graph = load_build_graph(snapshot)

    def hash_everything():
        return len(TargetHasher(graph, snapshot).all_hashes())

    count = benchmark(hash_everything)
    assert count == len(graph)


def test_benchmark_build_graph_load(benchmark, big_monorepo):
    snapshot = big_monorepo.repo.snapshot().to_dict()
    graph = benchmark(load_build_graph, snapshot)
    assert len(graph) == 8 + 16 + 32 + 32


def test_benchmark_union_graph_conflict(benchmark, big_monorepo):
    from repro.conflict.analyzer import ConflictAnalyzer

    snapshot = big_monorepo.repo.snapshot().to_dict()
    structural = big_monorepo.make_structural_change()
    content = big_monorepo.make_clean_change()

    def slow_path_check():
        analyzer = ConflictAnalyzer(snapshot)
        return analyzer.conflict(structural, content)

    benchmark(slow_path_check)


def test_benchmark_analyzer_analyze_cold(benchmark, big_monorepo):
    """From-scratch path: build an analyzer, then analyze one small change."""
    snapshot = big_monorepo.repo.snapshot().to_dict()
    change = big_monorepo.make_clean_change(
        target_name=big_monorepo.target_names(layer=2)[0]
    )

    def cold_analyze():
        return ConflictAnalyzer(snapshot).analyze(change)

    analysis = benchmark(cold_analyze)
    assert analysis.delta


def test_benchmark_analyzer_analyze_warm(benchmark, big_monorepo):
    """Carried-over path: an existing analyzer analyzes one small change."""
    snapshot = big_monorepo.repo.snapshot().to_dict()
    change = big_monorepo.make_clean_change(
        target_name=big_monorepo.target_names(layer=2)[0]
    )
    analyzer = ConflictAnalyzer(snapshot)

    def warm_analyze():
        analyzer.forget(change.change_id)
        return analyzer.analyze(change)

    analysis = benchmark(warm_analyze)
    assert analysis.delta


def test_analyzer_warm_speedup_vs_cold(big_monorepo, request):
    """Acceptance: analyzer reuse beats from-scratch analysis by >= 5x."""
    snapshot = big_monorepo.repo.snapshot().to_dict()
    change = big_monorepo.make_clean_change(
        target_name=big_monorepo.target_names(layer=2)[1]
    )
    analyzer = ConflictAnalyzer(snapshot)

    def warm_analyze():
        analyzer.forget(change.change_id)
        analyzer.analyze(change)

    def cold_analyze():
        ConflictAnalyzer(snapshot).analyze(change)

    warm = _best_of(warm_analyze, 10)
    cold = _best_of(cold_analyze, 3)
    speedup = cold / warm if warm else float("inf")
    record_bench(
        "conflict",
        "analyzer_warm_vs_cold",
        {
            "monorepo_layers": [8, 16, 32, 32],
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": speedup,
        },
    )
    if not request.config.getoption("--benchmark-disable"):
        assert speedup >= 5.0, f"warm analysis only {speedup:.1f}x faster than cold"


def test_incremental_rehash_after_one_file_edit(big_monorepo, request):
    """Dirty-set hashing after a 1-file edit vs. rehashing the whole graph."""
    snapshot = big_monorepo.repo.snapshot().to_dict()
    graph = load_build_graph(snapshot)
    base_hashes = TargetHasher(graph, snapshot).all_hashes()
    target = big_monorepo.target_names(layer=2)[2]
    path = big_monorepo.source_of(target)
    edited = dict(snapshot)
    edited[path] = edited[path] + "# edit\n"

    hashes, closure, computed = incremental_hashes(
        graph, base_hashes, graph, edited, [path]
    )
    assert hashes == TargetHasher(graph, edited).all_hashes()
    assert computed == len(closure) < len(graph)

    def full_rehash():
        TargetHasher(graph, edited).all_hashes()

    def incremental_rehash():
        incremental_hashes(graph, base_hashes, graph, edited, [path])

    full = _best_of(full_rehash, 3)
    incremental = _best_of(incremental_rehash, 10)
    speedup = full / incremental if incremental else float("inf")
    record_bench(
        "conflict",
        "rehash_one_file_edit",
        {
            "targets_total": len(graph),
            "targets_rehashed": computed,
            "full_seconds": full,
            "incremental_seconds": incremental,
            "speedup": speedup,
        },
    )
    if not request.config.getoption("--benchmark-disable"):
        assert speedup >= 5.0, f"incremental rehash only {speedup:.1f}x faster"


def test_benchmark_incremental_rehash(benchmark, big_monorepo):
    snapshot = big_monorepo.repo.snapshot().to_dict()
    graph = load_build_graph(snapshot)
    base_hashes = TargetHasher(graph, snapshot).all_hashes()
    target = big_monorepo.target_names(layer=2)[3]
    path = big_monorepo.source_of(target)
    edited = dict(snapshot)
    edited[path] = edited[path] + "# edit\n"

    def incremental_rehash():
        return incremental_hashes(graph, base_hashes, graph, edited, [path])[2]

    computed = benchmark(incremental_rehash)
    assert 0 < computed < len(graph)


def test_benchmark_subset_enumeration_top_100(benchmark):
    ancestors = [f"a{i}" for i in range(200)]
    probabilities = {a: 0.9 if i % 3 else 0.4 for i, a in enumerate(ancestors)}

    def top_100():
        enumerator = SubsetEnumerator("x", ancestors, probabilities)
        return [next(enumerator) for _ in range(100)]

    nodes = benchmark(top_100)
    values = [n.p_needed for n in nodes]
    assert values == sorted(values, reverse=True)


def test_benchmark_engine_selection_500_budget(benchmark):
    from repro.changes.truth import potential_conflict
    from repro.experiments.runner import make_stream
    from repro.conflict.conflict_graph import ConflictGraph
    from repro.predictor.predictors import StaticPredictor
    from repro.speculation.engine import SpeculationEngine

    stream = make_stream(500, 300, seed=123)
    graph = ConflictGraph(potential_conflict)
    changes = [change for _, change in stream]
    for change in changes:
        graph.add(change)
    ancestors = {c.change_id: graph.ancestors(c.change_id) for c in changes}
    engine = SpeculationEngine(StaticPredictor(success=0.9, conflict=0.05))
    changes_by_id = {c.change_id: c for c in changes}

    def select():
        # Keep this a *cold* kernel: the engine now answers repeated
        # identical rounds from its carry-over, which would turn the
        # benchmark into a fingerprint-comparison measurement.
        engine.invalidate_carry_over()
        return engine.select_builds(
            pending=changes,
            ancestors=ancestors,
            records={},
            decided={},
            budget=500,
            changes_by_id=changes_by_id,
        )

    selected = benchmark(select)
    assert len(selected) == 500


def test_benchmark_conflict_graph_insertion(benchmark):
    from repro.changes.truth import potential_conflict
    from repro.conflict.conflict_graph import ConflictGraph
    from repro.experiments.runner import make_stream

    changes = [change for _, change in make_stream(500, 200, seed=321)]

    def build_graph():
        graph = ConflictGraph(potential_conflict)
        for change in changes:
            graph.add(change)
        return graph.edge_count()

    benchmark(build_graph)
