"""Unit tests for repro.buildsys.target and repro.buildsys.graph."""

import pytest

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target, target_package, target_short_name
from repro.errors import DependencyCycleError, UnknownTargetError
from repro.types import StepKind

from .oracles import graph_structure


def t(name, deps=(), srcs=()):
    return Target(name, srcs=tuple(srcs), deps=tuple(deps))


class TestTarget:
    def test_label_parsing(self):
        assert target_package("//a/b:c") == "a/b"
        assert target_short_name("//a/b:c") == "c"

    def test_malformed_labels_rejected(self):
        for bad in ("a:b", "//nocolon", ":x"):
            with pytest.raises(ValueError):
                Target(bad)

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError):
            Target("//a:a", deps=("//a:a",))

    def test_steps_normalized_to_canonical_order(self):
        target = Target(
            "//a:a", steps=(StepKind.UI_TEST, StepKind.COMPILE, StepKind.UNIT_TEST)
        )
        assert target.steps == (
            StepKind.COMPILE,
            StepKind.UNIT_TEST,
            StepKind.UI_TEST,
        )

    def test_package_and_short_name(self):
        target = Target("//pkg/sub:lib")
        assert target.package == "pkg/sub"
        assert target.short_name == "lib"


@pytest.fixture
def diamond():
    # top depends on left+right, both depend on base.
    graph = BuildGraph(
        [
            t("//g:base"),
            t("//g:left", deps=["//g:base"]),
            t("//g:right", deps=["//g:base"]),
            t("//g:top", deps=["//g:left", "//g:right"]),
        ]
    )
    graph.validate()
    return graph


class TestGraphBasics:
    def test_duplicate_target_rejected(self, diamond):
        with pytest.raises(ValueError):
            diamond.add_target(t("//g:base"))

    def test_unknown_target_raises(self, diamond):
        with pytest.raises(UnknownTargetError):
            diamond.target("//g:nope")

    def test_missing_dep_fails_validation(self):
        graph = BuildGraph([t("//g:a", deps=["//g:missing"])])
        with pytest.raises(UnknownTargetError):
            graph.validate()

    def test_len_iter_contains(self, diamond):
        assert len(diamond) == 4
        assert "//g:base" in diamond
        assert {x.name for x in diamond} == {
            "//g:base", "//g:left", "//g:right", "//g:top",
        }


class TestTraversal:
    def test_topological_order_deps_first(self, diamond):
        order = diamond.topological_order()
        assert order.index("//g:base") < order.index("//g:left")
        assert order.index("//g:left") < order.index("//g:top")
        assert order.index("//g:right") < order.index("//g:top")

    def test_topological_order_deterministic(self, diamond):
        assert diamond.topological_order() == diamond.topological_order()

    def test_cycle_detected(self):
        graph = BuildGraph(
            [t("//g:a", deps=["//g:b"]), t("//g:b", deps=["//g:a"])]
        )
        with pytest.raises(DependencyCycleError):
            graph.topological_order()

    def test_transitive_deps(self, diamond):
        assert diamond.transitive_deps("//g:top") == {
            "//g:base", "//g:left", "//g:right",
        }
        assert diamond.transitive_deps("//g:base") == set()

    def test_transitive_dependents_is_affected_closure(self, diamond):
        assert diamond.transitive_dependents(["//g:base"]) == {
            "//g:base", "//g:left", "//g:right", "//g:top",
        }
        assert diamond.transitive_dependents(["//g:left"]) == {
            "//g:left", "//g:top",
        }

    def test_dependents_of(self, diamond):
        assert diamond.direct_dependents("//g:base") == {"//g:left", "//g:right"}

    def test_targets_owning(self):
        graph = BuildGraph([t("//g:a", srcs=["g/x.py"])])
        assert graph.targets_owning("g/x.py") == {"//g:a"}
        assert graph.targets_owning("nope.py") == set()


class TestStructure:
    def test_same_structure_ignores_nothing_structural(self, diamond):
        clone = BuildGraph(
            [
                t("//g:base"),
                t("//g:left", deps=["//g:base"]),
                t("//g:right", deps=["//g:base"]),
                t("//g:top", deps=["//g:left", "//g:right"]),
            ]
        )
        assert graph_structure(diamond) == graph_structure(clone)

    def test_added_target_changes_structure(self, diamond):
        bigger = BuildGraph(list(diamond) + [t("//g:extra")])
        assert graph_structure(diamond) != graph_structure(bigger)

    def test_changed_edge_changes_structure(self):
        a = BuildGraph([t("//g:a"), t("//g:b", deps=["//g:a"])])
        b = BuildGraph([t("//g:a"), t("//g:b")])
        assert graph_structure(a) != graph_structure(b)

    def test_depth(self, diamond):
        assert diamond.depth() == 3
