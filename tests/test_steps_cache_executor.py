"""Unit tests for build steps, the artifact cache, and the executor."""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.executor import BuildExecutor
from repro.buildsys.loader import load_build_graph
from repro.buildsys.steps import (
    StepResult,
    StepSpec,
    evaluate_step,
    scan_directives,
)
from repro.types import StepKind

from .oracles import build_affected


class TestDirectives:
    def test_scan_counts(self):
        fails, conflicts = scan_directives(
            ["# FAIL:unit_test\n# CONFLICT:tok\n", "# CONFLICT:tok\n# FAIL:compile\n"]
        )
        assert fails == {"unit_test": 1, "compile": 1}
        assert conflicts == {"tok": 2}

    def test_scan_empty(self):
        assert scan_directives(["plain code\n"]) == ({}, {})


@pytest.fixture
def pair_snapshot():
    return {
        "p/BUILD": "target(name='p', srcs=['a.py', 'b.py'])",
        "p/a.py": "A\n",
        "p/b.py": "B\n",
        "q/BUILD": "target(name='q', srcs=['q.py'], deps=['//p:p'])",
        "q/q.py": "Q\n",
    }


class TestEvaluateStep:
    def test_clean_target_passes(self, pair_snapshot):
        graph = load_build_graph(pair_snapshot)
        result = evaluate_step(
            graph, graph.target("//p:p"), StepKind.UNIT_TEST, pair_snapshot
        )
        assert result.passed

    def test_fail_directive_fails_matching_step_only(self, pair_snapshot):
        snapshot = dict(pair_snapshot, **{"p/a.py": "# FAIL:unit_test\n"})
        graph = load_build_graph(snapshot)
        target = graph.target("//p:p")
        assert not evaluate_step(graph, target, StepKind.UNIT_TEST, snapshot).passed
        assert evaluate_step(graph, target, StepKind.COMPILE, snapshot).passed

    def test_single_conflict_token_passes(self, pair_snapshot):
        snapshot = dict(pair_snapshot, **{"p/a.py": "# CONFLICT:tok\n"})
        graph = load_build_graph(snapshot)
        result = evaluate_step(
            graph, graph.target("//p:p"), StepKind.UNIT_TEST, snapshot
        )
        assert result.passed

    def test_double_conflict_token_fails_tests(self, pair_snapshot):
        snapshot = dict(
            pair_snapshot,
            **{"p/a.py": "# CONFLICT:tok\n", "p/b.py": "# CONFLICT:tok\n"},
        )
        graph = load_build_graph(snapshot)
        target = graph.target("//p:p")
        assert not evaluate_step(graph, target, StepKind.UNIT_TEST, snapshot).passed
        # Compile steps are not conflict-sensitive.
        assert evaluate_step(graph, target, StepKind.COMPILE, snapshot).passed

    def test_conflict_visible_through_dependency_closure(self, pair_snapshot):
        # One token in //p sources, one in //q's own source: //q's tests see
        # both through the transitive closure.
        snapshot = dict(
            pair_snapshot,
            **{"p/a.py": "# CONFLICT:tok\n", "q/q.py": "# CONFLICT:tok\n"},
        )
        graph = load_build_graph(snapshot)
        assert not evaluate_step(
            graph, graph.target("//q:q"), StepKind.UNIT_TEST, snapshot
        ).passed


class TestArtifactCache:
    def test_put_get_roundtrip(self):
        cache = ArtifactCache(capacity=4)
        result = StepResult(StepSpec("//p:p", StepKind.COMPILE), True)
        cache.put("h1", StepKind.COMPILE, result)
        hit = cache.get("h1", StepKind.COMPILE)
        assert hit is not None and hit.passed and hit.cached

    def test_miss_counts(self):
        cache = ArtifactCache()
        assert cache.get("nope", StepKind.COMPILE) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_lru_eviction(self):
        cache = ArtifactCache(capacity=2)
        r = StepResult(StepSpec("//p:p", StepKind.COMPILE), True)
        cache.put("h1", StepKind.COMPILE, r)
        cache.put("h2", StepKind.COMPILE, r)
        cache.get("h1", StepKind.COMPILE)      # h1 now most recent
        cache.put("h3", StepKind.COMPILE, r)   # evicts h2
        assert cache.get("h2", StepKind.COMPILE) is None
        assert cache.get("h1", StepKind.COMPILE) is not None
        assert cache.stats.evictions == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)


class TestBuildExecutor:
    def test_full_build_success(self, pair_snapshot):
        report = BuildExecutor().build(pair_snapshot)
        assert report.success
        assert set(report.targets_built) == {"//p:p", "//q:q"}

    def test_cache_reuse_across_builds(self, pair_snapshot):
        executor = BuildExecutor()
        first = executor.build(pair_snapshot)
        second = executor.build(pair_snapshot)
        assert first.steps_executed > 0
        assert second.steps_executed == 0
        assert second.steps_cached == first.results.__len__()

    def test_stop_on_failure_short_circuits(self, pair_snapshot):
        snapshot = dict(pair_snapshot, **{"p/a.py": "# FAIL:compile\n"})
        report = BuildExecutor().build(snapshot, stop_on_failure=True)
        assert not report.success
        assert report.first_failure() is not None
        # //p fails at compile; //q is never reached.
        assert report.results[-1].spec.target == "//p:p"

    def test_build_affected_only_rebuilds_delta(self, pair_snapshot):
        executor = BuildExecutor()
        changed = dict(pair_snapshot, **{"q/q.py": "Q2\n"})
        report = build_affected(executor, pair_snapshot, changed)
        assert set(report.targets_built) == {"//q:q"}
        assert report.success

    def test_subset_build_validates_targets(self, pair_snapshot):
        with pytest.raises(Exception):
            BuildExecutor().build(pair_snapshot, targets=["//nope:x"])

    def test_cached_failure_is_reused(self, pair_snapshot):
        executor = BuildExecutor()
        snapshot = dict(pair_snapshot, **{"p/a.py": "# FAIL:unit_test\n"})
        first = executor.build(snapshot)
        second = executor.build(snapshot)
        assert not first.success and not second.success
        assert second.steps_executed == 0
