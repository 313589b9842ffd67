"""Executor/cache step elimination: the paper's section-6.2 guarantee.

Rebuilding any target at an unchanged Algorithm-1 hash must perform zero
new step evaluations — across repeated builds, across executors sharing a
cache, across overlapping affected-only builds, and for failures too.
"""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.executor import BuildExecutor
from repro.buildsys.loader import load_build_graph
from repro.buildsys.steps import evaluate_step
from repro.types import StepKind

from .oracles import build_affected


@pytest.fixture
def chain_snapshot():
    return {
        "base/BUILD": "target(name='base', srcs=['base.py'])",
        "base/base.py": "B\n",
        "mid/BUILD": "target(name='mid', srcs=['mid.py'], deps=['//base:base'])",
        "mid/mid.py": "M\n",
        "top/BUILD": "target(name='top', srcs=['top.py'], deps=['//mid:mid'])",
        "top/top.py": "T\n",
    }


class TestSameHashZeroEvaluations:
    def test_identical_rebuild_is_all_hits(self, chain_snapshot):
        executor = BuildExecutor()
        first = executor.build(chain_snapshot)
        second = executor.build(chain_snapshot)
        assert first.steps_executed == len(first.results) > 0
        assert second.steps_executed == 0
        assert second.steps_cached == len(first.results)
        assert executor.cache.stats.hit_rate == pytest.approx(0.5)

    def test_single_target_rebuilt_at_same_hash_is_free(self, chain_snapshot):
        executor = BuildExecutor()
        executor.build(chain_snapshot, targets=["//mid:mid"])
        again = executor.build(chain_snapshot, targets=["//mid:mid"])
        assert again.steps_executed == 0
        assert again.targets_built == ["//base:base", "//mid:mid"]

    def test_shared_cache_eliminates_across_executors(self, chain_snapshot):
        cache = ArtifactCache()
        BuildExecutor(cache).build(chain_snapshot)
        report = BuildExecutor(cache).build(chain_snapshot)
        assert report.steps_executed == 0


class TestDeltaBoundedWork:
    def test_leaf_edit_reexecutes_only_its_closure(self, chain_snapshot):
        executor = BuildExecutor()
        executor.build(chain_snapshot)
        edited = dict(chain_snapshot, **{"mid/mid.py": "M2\n"})
        report = executor.build(edited)
        # base kept its hash: its steps are hits; mid and top re-run.
        assert report.targets_built[0] == "//base:base"
        executed = {r.spec.target for r in report.results if not r.cached}
        assert executed == {"//mid:mid", "//top:top"}

    def test_affected_build_then_full_build_is_free(self, chain_snapshot):
        executor = BuildExecutor()
        executor.build(chain_snapshot)
        edited = dict(chain_snapshot, **{"top/top.py": "T2\n"})
        incremental = build_affected(executor, chain_snapshot, edited)
        assert incremental.targets_built == ["//top:top"]
        assert incremental.steps_executed > 0
        # A later full build of the edited snapshot re-derives the same
        # hashes, so *every* step — including the fresh ones — is a hit.
        full = executor.build(edited)
        assert full.steps_executed == 0

    def test_unchanged_snapshot_affected_build_is_empty(self, chain_snapshot):
        report = build_affected(BuildExecutor(), chain_snapshot, dict(chain_snapshot))
        assert report.results == [] and report.targets_built == []
        assert report.success

    def test_cached_flag_partitions_the_report(self, chain_snapshot):
        executor = BuildExecutor()
        first = executor.build(chain_snapshot)
        second = executor.build(chain_snapshot)
        for report in (first, second):
            assert report.steps_executed + report.steps_cached == len(report.results)
        assert all(r.cached for r in second.results)


class TestFailureElimination:
    def test_cached_failures_count_as_eliminated_steps(self, chain_snapshot):
        broken = dict(chain_snapshot, **{"mid/mid.py": "# FAIL:unit_test\n"})
        executor = BuildExecutor()
        first = executor.build(broken)
        second = executor.build(broken)
        assert not first.success and not second.success
        assert second.steps_executed == 0
        assert second.first_failure().cached

    def test_hit_result_equals_fresh_evaluation(self, chain_snapshot):
        """A cache hit must be indistinguishable from re-running the step."""
        executor = BuildExecutor()
        executor.build(chain_snapshot)
        graph = load_build_graph(chain_snapshot)
        target = graph.target("//top:top")
        fresh = evaluate_step(graph, target, StepKind.UNIT_TEST, chain_snapshot)
        rebuilt = executor.build(chain_snapshot, targets=["//top:top"])
        hit = [
            r for r in rebuilt.results
            if r.spec.target == "//top:top" and r.spec.kind is StepKind.UNIT_TEST
        ][0]
        assert hit.cached
        assert (hit.spec, hit.passed, hit.log) == (
            fresh.spec, fresh.passed, fresh.log,
        )
