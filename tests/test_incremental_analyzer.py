"""Unit tests for the incremental conflict-analysis machinery.

Covers the copy-on-write snapshot overlay, package-granular graph
reloading, dirty-set seeded hashing, and the analyzer's carry-over across
mainline advances (revalidation, recomputation, and ``forget`` eviction).
"""

import copy

import pytest

from repro.buildsys.executor import BuildContext
from repro.buildsys.hashing import TargetHasher, dirty_targets, incremental_hashes
from repro.buildsys.loader import load_build_graph, reload_packages
from repro.changes.change import Change, Developer, next_change_id
from repro.conflict.analyzer import ConflictAnalyzer
from repro.errors import UnknownTargetError
from repro.journal import fingerprint_digest
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import Patch, SnapshotOverlay
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

from .oracles import graph_structure

DEV = Developer("dev1")


def _change(patch):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        patch=patch,
        base_commit=None,
    )


def modify(snapshot, path, content):
    return Patch.modifying({path: content}, base={path: snapshot[path]})


class TestSnapshotOverlay:
    def test_apply_returns_overlay_not_copy(self, tiny_snapshot):
        patch = modify(tiny_snapshot, "lib/lib.py", "LIB = 99\n")
        result = patch.apply(tiny_snapshot)
        assert isinstance(result, SnapshotOverlay)
        assert result["lib/lib.py"] == "LIB = 99\n"
        assert result["base/base.py"] == tiny_snapshot["base/base.py"]
        # The base dict was not duplicated or mutated.
        assert tiny_snapshot["lib/lib.py"] == "LIB = 2\n"

    def test_overlay_handles_delete_and_add(self, tiny_snapshot):
        patch = Patch.deleting(["tool/tool.py"])
        result = patch.apply(tiny_snapshot)
        assert "tool/tool.py" not in result
        assert result.get("tool/tool.py") is None
        with pytest.raises(KeyError):
            result["tool/tool.py"]
        assert len(result) == len(tiny_snapshot) - 1

        added = Patch.adding({"new/file.py": "x\n"}).apply(tiny_snapshot)
        assert "new/file.py" in added
        assert len(added) == len(tiny_snapshot) + 1
        assert set(added) == set(tiny_snapshot) | {"new/file.py"}

    def test_overlay_equality_with_plain_dicts(self, tiny_snapshot):
        patch = modify(tiny_snapshot, "app/app.py", "APP = 7\n")
        expected = dict(tiny_snapshot)
        expected["app/app.py"] = "APP = 7\n"
        result = patch.apply(tiny_snapshot)
        assert result == expected
        assert expected == result.to_dict()
        assert result != tiny_snapshot

    def test_overlays_chain(self, tiny_snapshot):
        first = modify(tiny_snapshot, "app/app.py", "APP = 7\n")
        layered = first.apply(tiny_snapshot)
        second = Patch.modifying({"tool/tool.py": "TOOL = 8\n"})
        twice = second.apply(layered)
        assert twice["app/app.py"] == "APP = 7\n"
        assert twice["tool/tool.py"] == "TOOL = 8\n"
        assert twice["base/base.py"] == tiny_snapshot["base/base.py"]


class TestReloadPackages:
    def test_content_only_touch_returns_same_graph(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        reloaded = reload_packages(graph, tiny_snapshot, ["lib/lib.py"])
        assert reloaded is graph

    def test_touched_package_reparsed_others_shared(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        snapshot = dict(tiny_snapshot)
        snapshot["lib/BUILD"] = (
            "target(name = 'lib', srcs = ['lib.py', 'util.py'],"
            " deps = ['//base:base'])\n"
        )
        snapshot["lib/util.py"] = "U = 1\n"
        reloaded = reload_packages(
            graph, snapshot, ["lib/BUILD", "lib/util.py"]
        )
        assert reloaded is not graph
        assert reloaded.target("//lib:lib").srcs == ("lib/lib.py", "lib/util.py")
        # Untouched packages share Target objects with the base graph.
        assert reloaded.target("//app:app") is graph.target("//app:app")
        assert reloaded.target("//base:base") is graph.target("//base:base")
        # And the whole thing equals a from-scratch load.
        fresh = load_build_graph(snapshot)
        assert graph_structure(reloaded) == graph_structure(fresh)

    def test_deleted_build_file_drops_package(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        snapshot = dict(tiny_snapshot)
        del snapshot["tool/BUILD"]
        del snapshot["tool/tool.py"]
        reloaded = reload_packages(
            graph, snapshot, ["tool/BUILD", "tool/tool.py"]
        )
        assert "//tool:tool" not in reloaded
        assert "//app:app" in reloaded

    def test_dangling_dep_after_reload_rejected(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        snapshot = dict(tiny_snapshot)
        del snapshot["base/BUILD"]
        with pytest.raises(UnknownTargetError):
            reload_packages(graph, snapshot, ["base/BUILD"])


class TestDirtySetHashing:
    def test_incremental_matches_from_scratch(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        base_hashes = TargetHasher(graph, tiny_snapshot).all_hashes()
        changed = dict(tiny_snapshot)
        changed["lib/lib.py"] = "LIB = 5\n"
        hashes, closure, computed, seeds = incremental_hashes(
            graph, base_hashes, graph, changed, ["lib/lib.py"]
        )
        assert hashes == TargetHasher(graph, changed).all_hashes()
        # lib plus its reverse-dependency closure (app), nothing else.
        assert closure == {"//lib:lib", "//app:app"}
        assert computed == 2
        # The seeds are the owners of the touched path, not their dependents.
        assert seeds == {"//lib:lib"}

    def test_dirty_targets_flags_redefined_and_new(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        snapshot = dict(tiny_snapshot)
        snapshot["new/BUILD"] = "target(name = 'new', srcs = [], deps = ['//lib:lib'])\n"
        snapshot["tool/BUILD"] = "target(name = 'tool', srcs = ['tool.py'], deps = ['//base:base'])\n"
        reloaded = reload_packages(graph, snapshot, ["new/BUILD", "tool/BUILD"])
        seeds = dirty_targets(graph, reloaded, ["new/BUILD", "tool/BUILD"])
        assert seeds == {"//new:new", "//tool:tool"}

    def test_untouched_digests_are_reused_not_recomputed(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        base_hashes = TargetHasher(graph, tiny_snapshot).all_hashes()
        changed = dict(tiny_snapshot)
        changed["app/app.py"] = "APP = 9\n"
        hasher = TargetHasher(
            graph, changed, seed_hashes=base_hashes, dirty=["//app:app"]
        )
        hashes = hasher.all_hashes()
        assert hasher.computed == 1  # app is a root: closure is just itself
        assert hashes["//base:base"] == base_hashes["//base:base"]


class TestAnalyzerIncrementalAnalyze:
    def test_content_change_shares_base_graph(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        change = _change(modify(tiny_snapshot, "base/base.py", "BASE = 10\n"))
        analysis = analyzer.analyze(change)
        # A content-only analysis keeps no graph: it reads the base's.
        assert analysis.graph is None
        assert not analysis.structure_changed
        # base affects base, lib, app: exactly the closure was rehashed.
        assert analyzer.stats.targets_rehashed == 3
        assert analyzer.stats.targets_total == 4

    def test_delta_matches_full_hash_diff(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        change = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 12\n"))
        delta = analyzer.affected_targets(change)
        snapshot = change.patch.apply(tiny_snapshot)
        graph = load_build_graph(snapshot)
        full = TargetHasher(graph, snapshot).all_hashes()
        base = TargetHasher(load_build_graph(tiny_snapshot), tiny_snapshot).all_hashes()
        expected = {
            (name, digest)
            for name, digest in full.items()
            if base.get(name) != digest
        }
        assert {(t.name, t.digest) for t in delta} == expected


class TestForgetEviction:
    def test_forget_evicts_analysis_and_index_entries(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        a = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 40\n"))
        b = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"))
        analyzer.conflict(a, b)
        assert analyzer.cached_change_ids() == {a.change_id, b.change_id}
        analyzer.forget(a.change_id)
        assert analyzer.cached_change_ids() == {b.change_id}
        # Its index entries went with it: only b's names and path are left.
        assert set(analyzer._by_path) == {"app/app.py"}
        assert all(ids == {b.change_id} for ids in analyzer._by_taint.values())

    def test_forget_unknown_change_is_noop(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        analyzer.forget("no-such-change")


class TestAdvanceBase:
    def _advance(self, analyzer, snapshot, patch):
        """Commit ``patch`` on the analyzer's base and advance it."""
        analyzer.advance_base(
            analyzer.base.derive_stack((patch,)).as_root(), patch.paths
        )
        return patch.apply(snapshot).to_dict()

    def _assert_fresh(self, analyzer, new_snapshot, *changes):
        """Each change's analysis reads as a from-scratch analyzer's."""
        fresh = ConflictAnalyzer(BuildContext.load(new_snapshot))
        assert analyzer.base.hashes == fresh.base.hashes
        for change in changes:
            a, b = analyzer.analyze(change), fresh.analyze(change)
            assert (a.taint, a.structure_changed) == (b.taint, b.structure_changed)
            assert analyzer.affected_targets(change) == fresh.affected_targets(change)

    def test_disjoint_analysis_is_revalidated(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"))
        before = analyzer.affected_targets(pending)
        # Commit an edit to the independent tool target.
        commit = modify(tiny_snapshot, "tool/tool.py", "TOOL = 50\n")
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.stats.analyses_revalidated == 1
        assert analyzer.stats.analyses_recomputed == 0
        assert pending.change_id in analyzer.cached_change_ids()
        # The carried analysis matches a from-scratch analyzer exactly,
        # and outside the commit's closure so do the digests.
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.affected_targets(pending) == before

    def test_commit_into_the_closure_keeps_the_analysis(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"))
        before = analyzer.affected_targets(pending)
        # Commit into base/, whose closure reaches app: app's digest moves,
        # its name does not, so the analysis stays.
        commit = modify(tiny_snapshot, "base/base.py", "BASE = 99\n")
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert pending.change_id in analyzer.cached_change_ids()
        assert set(analyzer._by_taint) == {"//app:app"}
        assert set(analyzer._by_path) == {"app/app.py"}
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.affected_targets(pending) != before
        assert analyzer.stats.analyses == 1
        assert analyzer.stats.analyses_recomputed == 0

    def test_commit_on_a_touched_path_recomputes(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(Patch.modifying({"app/app.py": "APP = 30\n"}))
        analyzer.analyze(pending)
        commit = modify(tiny_snapshot, "app/app.py", "APP = 31\n")
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert pending.change_id not in analyzer.cached_change_ids()
        # The drop alone is an *invalidation*; the recompute is only
        # counted when analyze() actually redoes the work.
        assert analyzer.stats.analyses_recomputed == 0
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.stats.analyses_recomputed == 1
        # Re-analyzing again is a cache hit, not another recompute.
        analyzer.analyze(pending)
        assert analyzer.stats.analyses_recomputed == 1

    def test_add_only_commit_keeps_content_analyses(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 41\n"))
        analyzer.analyze(pending)
        commit = Patch.adding(
            {
                "newpkg/BUILD": "target(name = 'n', srcs = ['n.py'], deps = [])\n",
                "newpkg/n.py": "N = 1\n",
            }
        )
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.cached_change_ids() == {pending.change_id}
        assert set(analyzer._by_taint) == {"//tool:tool"}
        # The adopted base is the head's, and structure is judged against
        # it: the committed package is no longer a structure change.
        fresh = ConflictAnalyzer(BuildContext.load(new_snapshot))
        assert graph_structure(analyzer.base.graph) == graph_structure(
            fresh.base.graph
        )
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.stats.analyses_recomputed == 0

    def test_added_target_depending_into_a_taint_drops_it(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        into = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 41\n"))
        elsewhere = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 41\n"))
        assert not analyzer.conflict(into, elsewhere)
        # The new target depends on app, whose dependencies lib's taint
        # reaches: on the new base it is tainted too.
        commit = Patch.adding(
            {
                "newpkg/BUILD": (
                    "target(name = 'n', srcs = ['n.py'], deps = ['//app:app'])\n"
                ),
                "newpkg/n.py": "N = 1\n",
            }
        )
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.cached_change_ids() == {elsewhere.change_id}
        self._assert_fresh(analyzer, new_snapshot, into, elsewhere)
        assert "//newpkg:n" in analyzer.analyze(into).taint
        assert analyzer.stats.analyses_recomputed == 1

    def test_added_target_reading_a_touched_source_drops_it(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 41\n"))
        analyzer.analyze(pending)
        # tool keeps its declaration; the added twin reads tool.py too.
        commit = modify(
            tiny_snapshot,
            "tool/BUILD",
            "target(name = 'tool', srcs = ['tool.py'], deps = [])\n"
            "target(name = 'twin', srcs = ['tool.py'], deps = [])\n",
        )
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.cached_change_ids() == frozenset()
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.analyze(pending).taint == {"//tool:tool", "//tool:twin"}

    def test_redeclaring_commit_drops_all_caches(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 41\n"))
        analyzer.analyze(pending)
        # app now depends on tool: a pre-existing target is redeclared.
        commit = modify(
            tiny_snapshot,
            "app/BUILD",
            "target(name = 'app', srcs = ['app.py'],"
            " deps = ['//lib:lib', '//tool:tool'])\n",
        )
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.cached_change_ids() == frozenset()
        self._assert_fresh(analyzer, new_snapshot, pending)
        assert analyzer.analyze(pending).taint == {"//tool:tool", "//app:app"}
        assert analyzer.stats.analyses_recomputed == 1

    def test_build_reloading_analysis_survives_content_advances_only(
        self, tiny_snapshot
    ):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        path = "tool/BUILD"
        tweak = _change(modify(tiny_snapshot, path, tiny_snapshot[path] + "# x\n"))
        assert analyzer.analyze(tweak).graph is not None
        assert not analyzer.analyze(tweak).structure_changed
        snapshot = self._advance(
            analyzer, tiny_snapshot, modify(tiny_snapshot, "lib/lib.py", "LIB = 7\n")
        )
        assert analyzer.cached_change_ids() == {tweak.change_id}
        self._assert_fresh(analyzer, snapshot, tweak)
        # Its own graph predates any added target: an add-only advance
        # drops it.
        added = Patch.adding({"newpkg/BUILD": "target(name = 'n', srcs = [])\n"})
        snapshot = self._advance(analyzer, snapshot, added)
        assert analyzer.cached_change_ids() == frozenset()
        self._assert_fresh(analyzer, snapshot, tweak)

    def test_advance_without_paths_rebuilds(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        pending = _change(modify(tiny_snapshot, "app/app.py", "APP = 31\n"))
        analyzer.analyze(pending)
        commit = modify(tiny_snapshot, "tool/tool.py", "TOOL = 51\n")
        new_snapshot = commit.apply(tiny_snapshot).to_dict()
        analyzer.advance_base(analyzer.base.derive_stack((commit,)).as_root(), None)
        assert analyzer.cached_change_ids() == frozenset()
        self._assert_fresh(analyzer, new_snapshot, pending)

    def test_index_keeps_only_revalidated_analyses(self, tiny_snapshot):
        analyzer = ConflictAnalyzer(BuildContext.load(tiny_snapshot))
        kept = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 40\n"))
        moved = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 20\n"))
        assert not analyzer.conflict(kept, moved)
        index = (dict(analyzer._by_taint), dict(analyzer._by_path))
        # base's closure reaches lib (and app), not tool: lib's digests
        # move, its names stay, and both analyses keep their entries.
        commit = modify(tiny_snapshot, "base/base.py", "BASE = 52\n")
        new_snapshot = self._advance(analyzer, tiny_snapshot, commit)
        assert analyzer.cached_change_ids() == {kept.change_id, moved.change_id}
        assert (analyzer._by_taint, analyzer._by_path) == index
        self._assert_fresh(analyzer, new_snapshot, kept, moved)
        # The carried entries answer the next sweep without re-analysis.
        late = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"))
        assert analyzer.conflict_candidates(late, [kept, moved]) == [
            moved.change_id
        ]
        assert analyzer.stats.analyses == 3
        assert analyzer.stats.analyses_recomputed == 0
        # A commit on a touched path drops just that one, and its entries.
        commit = modify(new_snapshot, "tool/tool.py", "TOOL = 53\n")
        self._advance(analyzer, new_snapshot, commit)
        assert analyzer.cached_change_ids() == {moved.change_id, late.change_id}
        assert "tool/tool.py" not in analyzer._by_path
        assert "//tool:tool" not in analyzer._by_taint


class TestServiceCarryOver:
    """Carrying analyses across head advances changes no decision: a
    service that drops every analysis at every advance decides the same."""

    @staticmethod
    def _stream():
        """Clean edits, conflicting pairs, broken edits and added packages,
        on pairwise distinct paths so every patch applies when it lands."""
        synth = SyntheticMonorepo(
            MonorepoSpec(layers=(3, 5, 4), fan_in=2, files_per_target=4), seed=17
        )
        files = synth.repo.snapshot().to_dict()
        names = synth.target_names()
        changes = []
        for k in range(24):
            name = names[(5 * k) % len(names)]
            changes.append(synth.make_clean_change(name, source_index=2 + k // 12))
            if k % 6 == 1:
                changes.append(synth.make_structural_change())
            elif k % 6 == 3:
                changes.extend(synth.make_conflicting_pair(target_name=names[k // 6]))
            elif k % 6 == 5:
                changes.append(synth.make_broken_change(names[4 + k // 6]))
        return files, changes

    @staticmethod
    def _run(files, changes):
        service = CoreService(
            Repository(dict(files)),
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
            config=CoreServiceConfig(workers=4),
        )
        for position, change in enumerate(copy.deepcopy(changes)):
            service.enqueue(change, at=position * 3.0)
        decisions = [(d.change_id, d.committed, d.at, d.reason) for d in service.pump()]
        stats = service.analyzer.stats
        service.close()
        return decisions, fingerprint_digest(service), stats

    def test_dropping_every_analysis_decides_the_same(self, monkeypatch):
        files, changes = self._stream()
        decisions, digest, carried = self._run(files, changes)
        with monkeypatch.context() as patched:
            # Unknown committed paths: advance_base drops everything.
            patched.setattr(
                CoreService, "_committed_paths_since", lambda self, old_head: None
            )
            dropped_decisions, dropped_digest, dropped = self._run(files, changes)
        assert decisions == dropped_decisions
        assert digest == dropped_digest
        assert (carried.fast_path, carried.slow_path, carried.skipped) == (
            dropped.fast_path,
            dropped.slow_path,
            dropped.skipped,
        )
        # The stream exercised the carry-over: heads advanced under
        # pending analyses, and survivors were not recomputed.
        assert dropped.analyses_revalidated == 0
        assert carried.analyses_revalidated > 0
        assert carried.analyses < dropped.analyses
        assert carried.slow_path > 0
        assert any(not committed for _, committed, _, _ in decisions)
