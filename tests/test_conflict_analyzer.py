"""Unit tests for the conflict analyzer and conflict graph."""

import pytest

from repro.buildsys.executor import BuildContext
from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import UnknownChangeError
from repro.vcs.patch import Patch

DEV = Developer("dev1")


def _change(patch, base):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        patch=patch,
        base_commit=None,
    )


@pytest.fixture
def analyzer(tiny_snapshot):
    return ConflictAnalyzer(BuildContext.load(tiny_snapshot))


def modify(snapshot, path, content):
    return Patch.modifying({path: content}, base={path: snapshot[path]})


class TestConflictAnalyzer:
    def test_same_target_changes_conflict(self, analyzer, tiny_snapshot):
        a = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 20\n"), analyzer)
        b = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 30\n"), analyzer)
        assert analyzer.conflict(a, b)
        assert analyzer.stats.textual == 1  # same file: textual conflict

    def test_dependency_chain_conflict(self, analyzer, tiny_snapshot):
        # base change affects lib and app; lib change affects lib and app.
        a = _change(modify(tiny_snapshot, "base/base.py", "BASE = 10\n"), analyzer)
        b = _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 20\n"), analyzer)
        assert analyzer.conflict(a, b)
        assert analyzer.stats.fast_path == 1

    def test_independent_targets_no_conflict(self, analyzer, tiny_snapshot):
        a = _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 40\n"), analyzer)
        b = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"), analyzer)
        assert not analyzer.conflict(a, b)

    def test_self_conflict_false(self, analyzer, tiny_snapshot):
        a = _change(modify(tiny_snapshot, "app/app.py", "APP = 30\n"), analyzer)
        assert not analyzer.conflict(a, a)

    def test_structural_change_uses_slow_path(self, analyzer, tiny_snapshot):
        structural = _change(
            Patch.adding(
                {
                    "new/BUILD": "target(name='new', srcs=['n.py'], deps=['//lib:lib'])",
                    "new/n.py": "N = 1\n",
                }
            ),
            analyzer,
        )
        content_only = _change(
            modify(tiny_snapshot, "tool/tool.py", "TOOL = 99\n"), analyzer
        )
        assert analyzer.changes_build_graph(structural)
        assert not analyzer.changes_build_graph(content_only)
        analyzer.conflict(structural, content_only)
        assert analyzer.stats.slow_path == 1

    def test_union_graph_agrees_with_equation6(self, analyzer, tiny_snapshot):
        """Cross-validate the scalable algorithm against the exact check."""
        changes = [
            _change(modify(tiny_snapshot, "base/base.py", "BASE = 10\n"), analyzer),
            _change(modify(tiny_snapshot, "lib/lib.py", "LIB = 20\n"), analyzer),
            _change(modify(tiny_snapshot, "tool/tool.py", "TOOL = 40\n"), analyzer),
            _change(
                Patch.adding(
                    {
                        "n2/BUILD": "target(name='n2', srcs=['n.py'], deps=['//app:app'])",
                        "n2/n.py": "N = 2\n",
                    }
                ),
                analyzer,
            ),
        ]
        for i, first in enumerate(changes):
            for second in changes[i + 1 :]:
                assert analyzer.conflict(first, second) == analyzer.conflict_equation6(
                    first, second
                )

    def test_affected_targets_exposed(self, analyzer, tiny_snapshot):
        a = _change(modify(tiny_snapshot, "base/base.py", "BASE = 10\n"), analyzer)
        names = {item.name for item in analyzer.affected_targets(a)}
        assert names == {"//base:base", "//lib:lib", "//app:app"}


class TestConflictGraph:
    def _labeled(self, targets):
        return Change(
            change_id=next_change_id(),
            revision_id="R1",
            developer=DEV,
            ground_truth=GroundTruth(target_names=frozenset(targets)),
        )

    def _graph(self):
        return ConflictGraph(potential_conflict)

    def test_ancestors_in_submit_order(self):
        graph = self._graph()
        a = self._labeled(["//x:1"])
        b = self._labeled(["//x:1", "//x:2"])
        c = self._labeled(["//x:2"])
        for change in (a, b, c):
            graph.add(change)
        assert graph.ancestors(c.change_id) == [b.change_id]
        assert graph.ancestors(b.change_id) == [a.change_id]
        assert graph.ancestors(a.change_id) == []

    def test_remove_drops_edges(self):
        graph = self._graph()
        a = self._labeled(["//x:1"])
        b = self._labeled(["//x:1"])
        graph.add(a)
        graph.add(b)
        graph.remove(a.change_id)
        assert graph.ancestors(b.change_id) == []
        assert graph.edge_count() == 0
        with pytest.raises(UnknownChangeError):
            graph.neighbors(a.change_id)

    def test_duplicate_add_rejected(self):
        graph = self._graph()
        a = self._labeled(["//x:1"])
        graph.add(a)
        with pytest.raises(ValueError):
            graph.add(a)
