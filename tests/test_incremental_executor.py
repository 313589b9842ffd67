"""Unit tests for incremental build execution.

Covers the :class:`~repro.buildsys.executor.BuildContext` derivation
chain, the controller's per-base context memo and its one-derive-per-build
stack fold, the running-counter :class:`BuildReport`, the allocation-free
artifact-cache hits, and the incremental counters on the obs registry.
The cross-path bit-identity guarantee is enforced separately by the
hypothesis property test (``test_property_incremental_executor.py``).
"""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.executor import BuildContext, BuildExecutor, BuildReport
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.loader import load_build_graph
from repro.buildsys.steps import StepResult, StepSpec
from repro.obs.recorder import Recorder
from repro.planner.controller import FullStackBuildController
from repro.types import BuildKey, StepKind
from repro.vcs.patch import Patch, SnapshotOverlay

from .conftest import TINY_FILES
from .oracles import ScratchBuildController, build_affected


def _ctx_and_patch(snapshot, files, base=None):
    context = BuildContext.load(dict(snapshot))
    patch = Patch.modifying(files, base=base or snapshot)
    return context, patch


def _derive(context, patch):
    return context.derive(patch.apply(context.snapshot), patch.paths)


@pytest.fixture
def derive_calls(monkeypatch):
    """Every ``BuildContext.derive`` call's touched-path set, in order."""
    calls = []
    original = BuildContext.derive

    def counting(self, snapshot, touched_paths):
        calls.append(set(touched_paths))
        return original(self, snapshot, touched_paths)

    monkeypatch.setattr(BuildContext, "derive", counting)
    return calls


class TestBuildContext:
    def test_derive_matches_from_scratch(self, tiny_snapshot):
        context, patch = _ctx_and_patch(
            tiny_snapshot, {"lib/lib.py": "LIB = 99\n"}
        )
        derived = _derive(context, patch)
        merged = patch.apply(tiny_snapshot)
        scratch_graph = load_build_graph(merged)
        scratch_hashes = TargetHasher(scratch_graph, merged).all_hashes()
        assert derived.hashes == scratch_hashes
        assert derived.rehashed < len(scratch_hashes)  # only the dirty cone

    def test_structural_derive_matches_from_scratch(self, tiny_snapshot):
        new_build = (
            "target(name = 'tool', srcs = ['tool.py', 'extra.py'], deps = [])\n"
        )
        patch = Patch(
            [
                *Patch.modifying(
                    {"tool/BUILD": new_build}, base=tiny_snapshot
                ),
                *Patch.adding({"tool/extra.py": "EXTRA = 5\n"}),
            ]
        )
        context = BuildContext.load(dict(tiny_snapshot))
        derived = _derive(context, patch)
        merged = patch.apply(tiny_snapshot)
        scratch_hashes = TargetHasher(
            load_build_graph(merged), merged
        ).all_hashes()
        assert derived.hashes == scratch_hashes
        assert derived.graph is not context.graph  # BUILD touched

    def test_content_only_derive_shares_graph_and_topo_index(
        self, tiny_snapshot
    ):
        context, patch = _ctx_and_patch(
            tiny_snapshot, {"app/app.py": "APP = 30\n"}
        )
        index_before = context.graph.topo_index()
        derived = _derive(context, patch)
        assert derived.graph is context.graph
        assert derived.graph.topo_index() is index_before

    def test_dirty_since_base_accumulates_along_chain(self, tiny_snapshot):
        context = BuildContext.load(dict(tiny_snapshot))
        first = _derive(
            context, Patch.modifying({"base/base.py": "BASE = 10\n"},
                                     base=tiny_snapshot)
        )
        second = _derive(
            first, Patch.modifying({"tool/tool.py": "TOOL = 40\n"},
                                   base=first.snapshot)
        )
        assert context.dirty_since_base is None  # roots carry no dirty set
        # base's edit dirties its whole reverse-dependency closure.
        assert {"//base:base", "//lib:lib", "//app:app"} <= first.dirty_since_base
        assert "//tool:tool" in second.dirty_since_base
        assert first.dirty_since_base <= second.dirty_since_base

    def test_build_between_matches_build_affected(self, tiny_snapshot):
        patch = Patch.modifying(
            {"lib/lib.py": "LIB = 7\n"}, base=tiny_snapshot
        )
        context = BuildContext.load(dict(tiny_snapshot))
        derived = _derive(context, patch)
        # Separate executors so artifact-cache state cannot cross-pollinate.
        incremental = BuildExecutor(ArtifactCache()).build_between(
            context, derived
        )
        merged = patch.apply(tiny_snapshot)
        scratch = build_affected(BuildExecutor(ArtifactCache()), tiny_snapshot, merged)
        assert incremental.targets_built == scratch.targets_built
        assert incremental.results == scratch.results

    def test_as_root_flattens_a_derived_snapshot_without_reading_it(
        self, tiny_snapshot, monkeypatch
    ):
        context, patch = _ctx_and_patch(tiny_snapshot, {"tool/tool.py": "TOOL = 1\n"})
        derived = _derive(context, patch)
        assert isinstance(derived.snapshot, SnapshotOverlay)
        reads = []
        original = SnapshotOverlay.__getitem__

        def counting(self, path):
            reads.append(path)
            return original(self, path)

        monkeypatch.setattr(SnapshotOverlay, "__getitem__", counting)
        root = derived.as_root()
        # The flatten is a dict copy plus the delta: no per-path read.
        assert reads == []
        assert type(root.snapshot) is dict
        assert root.snapshot == dict(tiny_snapshot, **{"tool/tool.py": "TOOL = 1\n"})
        assert root.dirty_since_base is None

    def test_a_content_only_hash_map_is_one_overlay_over_the_root_dict(
        self, tiny_snapshot
    ):
        context, patch = _ctx_and_patch(tiny_snapshot, {"lib/lib.py": "LIB = 3\n"})
        derived = context.derive_stack((patch,))
        hashes = derived.hashes
        assert isinstance(hashes, SnapshotOverlay)
        assert hashes.layered()[1] is context.hashes
        assert hashes == BuildContext.load(dict(derived.snapshot)).hashes
        root = derived.as_root()
        assert type(root.hashes) is dict
        assert root.hashes == hashes

        structural = context.derive_stack(
            (
                Patch(
                    [
                        *Patch.modifying(
                            {"tool/BUILD": "target(name = 'tool', srcs = "
                             "['tool.py', 'extra.py'], deps = [])\n"},
                            base=tiny_snapshot,
                        ),
                        *Patch.adding({"tool/extra.py": "EXTRA = 5\n"}),
                    ]
                ),
            )
        )
        assert type(structural.hashes) is dict
        assert structural.hashes == BuildContext.load(dict(structural.snapshot)).hashes


class TestBuildReport:
    def test_running_counters_via_append(self):
        report = BuildReport()
        passing = StepResult(StepSpec("//a:a", StepKind.COMPILE), passed=True)
        cached = StepResult(
            StepSpec("//a:a", StepKind.UNIT_TEST), passed=True, cached=True
        )
        failing = StepResult(
            StepSpec("//a:a", StepKind.UI_TEST), passed=False, log="boom"
        )
        report.append(passing)
        assert report.success and report.steps_executed == 1
        report.append(cached)
        assert report.steps_cached == 1
        report.append(failing)
        assert not report.success
        assert report.first_failure() is failing
        assert report.failures() == [failing]
        assert report.steps_executed == 2 and report.steps_cached == 1

    def test_constructor_seeds_counters_from_results(self):
        failing = StepResult(
            StepSpec("//a:a", StepKind.COMPILE), passed=False, log="x"
        )
        cached = StepResult(
            StepSpec("//b:b", StepKind.COMPILE), passed=True, cached=True
        )
        report = BuildReport(results=[failing, cached], targets_built=["//a:a"])
        assert not report.success
        assert report.first_failure() is failing
        assert report.steps_executed == 1 and report.steps_cached == 1


class TestArtifactCacheAllocationFree:
    def test_hit_returns_stored_object_identity(self):
        cache = ArtifactCache()
        result = StepResult(StepSpec("//a:a", StepKind.COMPILE), passed=True)
        cache.put("digest", StepKind.COMPILE, result)
        first = cache.get("digest", StepKind.COMPILE)
        second = cache.get("digest", StepKind.COMPILE)
        assert first is second  # no per-hit allocation
        assert first.cached and first.passed

    def test_put_normalizes_cached_mark(self):
        cache = ArtifactCache()
        already_marked = StepResult(
            StepSpec("//a:a", StepKind.COMPILE), passed=True, cached=True
        )
        cache.put("digest", StepKind.COMPILE, already_marked)
        hit = cache.get("digest", StepKind.COMPILE)
        assert hit.cached and hit.passed


class TestIncrementalController:
    def test_incremental_matches_scratch_execution(self, monorepo):
        warm = FullStackBuildController(monorepo.repo)
        cold = ScratchBuildController(monorepo.repo)
        clean = monorepo.make_clean_change()
        broken = monorepo.make_broken_change()
        structural = monorepo.make_structural_change()
        changes = {
            change.change_id: change for change in (clean, broken, structural)
        }
        for key in (
            BuildKey(clean.change_id),
            BuildKey(broken.change_id),
            BuildKey(structural.change_id),
            BuildKey(structural.change_id, frozenset({clean.change_id})),
        ):
            a = warm.execute(key, changes)
            b = cold.execute(key, changes)
            assert (a.success, a.steps_executed, a.steps_cached) == (
                b.success,
                b.steps_executed,
                b.steps_cached,
            )
            assert a.targets_built == b.targets_built
            assert a.duration == pytest.approx(b.duration)

    def test_base_context_loaded_once_and_reused(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        change = monorepo.make_clean_change()
        other = monorepo.make_clean_change()
        changes = {c.change_id: c for c in (change, other)}
        controller.execute(BuildKey(change.change_id), changes)
        controller.execute(BuildKey(other.change_id), changes)
        assert controller.stats.base_context_loads == 1
        assert controller.stats.base_context_reuses == 1

    def test_one_derive_per_execute_whatever_the_stack_depth(
        self, monorepo, derive_calls
    ):
        controller = FullStackBuildController(monorepo.repo)
        chain = [monorepo.make_clean_change() for _ in range(5)]
        changes = {c.change_id: c for c in chain}
        key = BuildKey(
            chain[-1].change_id, frozenset(c.change_id for c in chain[:-1])
        )
        assert controller.execute(key, changes).success
        # One overlay over the base covering the whole stack's paths.
        assert derive_calls == [set().union(*(c.patch.paths for c in chain))]
        # Re-executing the same key derives again: nothing is kept.
        controller.execute(key, changes)
        assert len(derive_calls) == 2
        stats = controller.stats
        assert (stats.prefix_hits, stats.prefix_misses) == (0, 2)
        assert stats.prefix_hit_rate == 0.0

    def test_on_commit_advances_base_without_reload(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        first = monorepo.make_clean_change()
        second = monorepo.make_clean_change()
        changes = {c.change_id: c for c in (first, second)}
        execution = controller.execute(BuildKey(first.change_id), changes)
        assert execution.success
        controller.on_commit(first, changes)
        assert controller.stats.base_context_advances == 1
        # The advanced context serves the new head: no second O(repo) load.
        after = controller.execute(BuildKey(second.change_id), changes)
        assert after.success
        assert controller.stats.base_context_loads == 1
        assert monorepo.repo.is_green()

    def test_one_derive_per_commit_and_one_load_across_commits(
        self, monorepo, derive_calls, monkeypatch
    ):
        controller = FullStackBuildController(monorepo.repo)
        derived = []
        original = FullStackBuildController._derive_stack

        def capturing(self, context, patches):
            derived.append(original(self, context, patches))
            return derived[-1]

        monkeypatch.setattr(FullStackBuildController, "_derive_stack", capturing)
        changes = {}
        for _ in range(10):
            change = monorepo.make_clean_change()
            changes[change.change_id] = change
            assert controller.execute(BuildKey(change.change_id), changes).success
            # A build's merged snapshot is one overlay over the base dict.
            build = derived[-1].snapshot
            assert isinstance(build, SnapshotOverlay)
            assert build.layered()[1] is controller.base_context().snapshot
            before = len(derive_calls)
            controller.on_commit(change, changes)
            assert len(derive_calls) == before + 1
            head = controller.base_context().snapshot
            assert type(head) is dict
            assert head == monorepo.repo.snapshot().to_dict()
        # The base advanced commit by commit, each a flat dict, on one load.
        assert controller.stats.base_context_loads == 1
        assert controller.stats.base_context_advances == len(changes)
        assert len(derive_calls) == 2 * len(changes)
        assert monorepo.repo.is_green()

    def test_merge_conflict_duration_and_reason(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        target = monorepo.target_names()[0]
        a = monorepo.make_clean_change(target)
        b = monorepo.make_clean_change(target)
        execution = controller.execute(
            BuildKey(b.change_id, frozenset({a.change_id})),
            {a.change_id: a, b.change_id: b},
        )
        assert not execution.success
        assert execution.failure_reason.startswith("merge conflict:")
        # One step's charge, no steps.
        assert execution.duration == FullStackBuildController.STEP_MINUTES
        assert execution.steps_executed == 0 and execution.steps_cached == 0
        assert execution.targets_built == ()

    def test_empty_delta_hits_duration_floor(self, tiny_repo):
        controller = FullStackBuildController(tiny_repo)
        snapshot = tiny_repo.snapshot().to_dict()
        noop = Patch.modifying(
            {"tool/tool.py": snapshot["tool/tool.py"]}, base=snapshot
        )
        from repro.changes.change import Change, Developer

        change = Change(
            change_id="noop",
            revision_id="R1",
            developer=Developer("dev"),
            patch=noop,
        )
        execution = controller.execute(BuildKey("noop"), {"noop": change})
        assert execution.success
        assert execution.steps_executed == 0 and execution.steps_cached == 0
        assert execution.targets_built == ()
        # No steps ran, but a build is never free: the floor applies.
        assert execution.duration == FullStackBuildController.CACHED_STEP_MINUTES > 0

    def test_counters_reach_the_registry(self, monorepo):
        recorder = Recorder()
        controller = FullStackBuildController(monorepo.repo, recorder=recorder)
        parent = monorepo.make_clean_change()
        child = monorepo.make_clean_change()
        changes = {c.change_id: c for c in (parent, child)}
        controller.execute(BuildKey(parent.change_id), changes)
        controller.execute(
            BuildKey(child.change_id, frozenset({parent.change_id})), changes
        )
        assert recorder.counter("executor_base_context_reused_total").value >= 1
        assert "executor_prefix_" not in recorder.prometheus_text()
