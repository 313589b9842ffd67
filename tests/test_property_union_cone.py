"""The cone check against its reference (section 5.2, Steps 2–4).

:func:`~repro.conflict.union_graph.cone_conflict` is what the analyzer's
slow path runs; :class:`~repro.conflict.union_graph.UnionGraph` states
the same steps over every node in topological order.  Over random pairs
of edits to a small graph the two must agree wherever the reference has
an answer, and where it has none — a cyclic union — the cone check must
still be sound against Equation 6.  Plus what follows from walking cones
instead of the repository: the two pinned cyclic-union regressions, the
taint set an analysis caches, and a pair cost that does not grow with
the number of targets.
"""

import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.buildsys.delta import equation6_conflict
from repro.buildsys.executor import BuildContext
from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.target import Target
from repro.changes.change import Change
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.union_graph import UnionGraph, cone_conflict
from repro.errors import DependencyCycleError
from repro.types import AffectedTarget
from repro.vcs.patch import Patch
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

# The five-target repository (``a`` depends on ``b``; ``c``, ``d``, ``e``
# stand alone) and the change-minting helpers of the service-level suite.
from .test_unbuildable_change import BASE as CYCLE_BASE
from .test_unbuildable_change import _DEV, _build, _rewrite

# -- the model: declarations and file contents, edited semantically -----------

#: name -> (srcs, deps): two leaves, two middles, two tops and an island.
BASE_DECLS = {
    "//a:a": (("a/a.py",), ()),
    "//b:b": (("b/b.py",), ()),
    "//c:c": (("c/c.py",), ("//a:a",)),
    "//d:d": (("d/d.py", "d/extra.py"), ("//a:a", "//b:b")),
    "//e:e": (("e/e.py",), ("//c:c",)),
    "//f:f": (("f/f.py",), ("//d:d",)),
    "//g:g": (("g/g.py",), ()),
}
BASE_FILES = {src: src for srcs, _ in BASE_DECLS.values() for src in srcs}
NAMES = sorted(BASE_DECLS)
#: Targets only a change can add; a dep on one the *other* change adds
#: dangles in the declaring change's own graph.
NEW_NAMES = ["//x:x", "//y:y"]


def _apply(edit, decls, files):
    """One edit, in place; an edit that does not apply is a no-op."""
    kind, first, second = edit
    if kind == "content":
        if first in decls and decls[first][0]:
            files[decls[first][0][0]] += "'"
    elif kind == "add":
        if first not in decls:
            src = first[2:].replace(":", "/") + ".py"
            files[src] = src
            decls[first] = ((src,), (second,) if second in decls else ())
    elif kind == "remove":
        if first in decls:
            for src in decls.pop(first)[0]:
                files.pop(src, None)
            for name, (srcs, deps) in list(decls.items()):
                decls[name] = (srcs, tuple(d for d in deps if d != first))
    elif first in decls and first != second:
        srcs, deps = decls[first]
        if kind == "add_dep":
            # ``second`` may be a name nothing in this change defines.
            decls[first] = (srcs, deps + (second,))
        elif kind == "drop_dep" and second in deps:
            decls[first] = (srcs, tuple(d for d in deps if d != second))
        elif kind == "reverse" and second in deps and second in decls:
            decls[first] = (srcs, tuple(d for d in deps if d != second))
            other_srcs, other_deps = decls[second]
            decls[second] = (other_srcs, other_deps + (first,))
        elif kind == "move_src" and second in decls and len(srcs) > 1:
            decls[first] = (srcs[:-1], deps)
            other_srcs, other_deps = decls[second]
            decls[second] = (other_srcs + (srcs[-1],), other_deps)


def _edited(edits):
    decls, files = dict(BASE_DECLS), dict(BASE_FILES)
    for edit in edits:
        _apply(edit, decls, files)
    return decls, files


def _flat(state):
    decls, files = state
    flat = {("decl", name): decl for name, decl in decls.items()}
    flat.update((("file", path), content) for path, content in files.items())
    return flat


BASE_FLAT = _flat((BASE_DECLS, BASE_FILES))


def _diff(state):
    """A state as a patch over the base: key -> new value (None = gone)."""
    flat = _flat(state)
    return {
        key: flat.get(key)
        for key in BASE_FLAT.keys() | flat.keys()
        if BASE_FLAT.get(key) != flat.get(key)
    }


def _compose(state_i, state_j):
    """Both patches over the base, or None when they overlap textually."""
    diff_i, diff_j = _diff(state_i), _diff(state_j)
    if diff_i.keys() & diff_j.keys():
        return None
    flat = {**BASE_FLAT, **diff_i, **diff_j}
    return tuple(
        {key: value for (kind, key), value in flat.items()
         if kind == wanted and value is not None}
        for wanted in ("decl", "file")
    )


def _graph_and_hashes(state):
    """Unvalidated on purpose: a dangling dep hashes as ``<unknown>``."""
    decls, files = state
    graph = BuildGraph(
        Target(name, srcs=srcs, deps=deps) for name, (srcs, deps) in decls.items()
    )
    return graph, TargetHasher(graph, files).all_hashes()


def _taint(base_hashes, hashes):
    """Step 2 as ``UnionNode.tag_direct`` states it, missing = ``None``."""
    return frozenset(
        name
        for name in base_hashes.keys() | hashes.keys()
        if base_hashes.get(name) != hashes.get(name)
    )


def _delta(base_hashes, hashes):
    return frozenset(
        AffectedTarget(name, digest)
        for name, digest in hashes.items()
        if base_hashes.get(name) != digest
    )


BASE_GRAPH, BASE_HASHES = _graph_and_hashes((BASE_DECLS, BASE_FILES))

_existing = st.sampled_from(NAMES)
_any_name = st.sampled_from(NAMES + NEW_NAMES)
edits = st.one_of(
    st.tuples(st.just("content"), _any_name, st.none()),
    st.tuples(st.just("add"), st.sampled_from(NEW_NAMES), _existing),
    st.tuples(st.just("remove"), _existing, st.none()),
    st.tuples(st.just("add_dep"), _any_name, _any_name),
    st.tuples(st.just("drop_dep"), _existing, _existing),
    st.tuples(st.just("reverse"), _existing, _existing),
    st.tuples(st.just("move_src"), _existing, _existing),
)
changes = st.lists(edits, min_size=1, max_size=3)


@given(edits_i=changes, edits_j=changes)
@settings(max_examples=400, deadline=None)
def test_cone_check_matches_the_union_graph_reference(edits_i, edits_j):
    state_i, state_j = _edited(edits_i), _edited(edits_j)
    try:
        graph_i, hashes_i = _graph_and_hashes(state_i)
        graph_j, hashes_j = _graph_and_hashes(state_j)
    except DependencyCycleError:
        # Cyclic on its own: the analyzer has no analysis to compare.
        assume(False)
    verdict = cone_conflict(
        BASE_GRAPH,
        graph_i,
        _taint(BASE_HASHES, hashes_i),
        graph_j,
        _taint(BASE_HASHES, hashes_j),
    )
    assert isinstance(verdict, bool)
    # The argument order must not matter either.
    assert verdict == cone_conflict(
        BASE_GRAPH,
        graph_j,
        _taint(BASE_HASHES, hashes_j),
        graph_i,
        _taint(BASE_HASHES, hashes_i),
    )

    union = UnionGraph(
        BASE_GRAPH, BASE_HASHES, graph_i, hashes_i, graph_j, hashes_j
    )
    try:
        union.propagate()
    except DependencyCycleError:
        pass  # a cyclic union: only Equation 6 can judge the verdict
    else:
        assert verdict == union.conflicts()

    # Soundness against Equation 6, cyclic union or not: whenever the
    # composed snapshot hashes at all, "no conflict" must be exact.
    combined = _compose(state_i, state_j)
    if combined is None:
        return  # textual overlap: decided before any graph is looked at
    try:
        _, hashes_ij = _graph_and_hashes(combined)
    except DependencyCycleError:
        return
    if equation6_conflict(
        _delta(BASE_HASHES, hashes_i),
        _delta(BASE_HASHES, hashes_j),
        _delta(BASE_HASHES, hashes_ij),
    ):
        assert verdict


# -- pinned regressions: unions that are cyclic though each change is not ------


def test_dependency_reversal_does_not_conflict_with_an_unrelated_change():
    """Base ``a -> b``; the change makes it ``b -> a``.  Base ∪ change is
    cyclic, which used to raise out of ``conflict()`` against anything."""
    analyzer = ConflictAnalyzer(BuildContext.load(dict(CYCLE_BASE)))
    reversal = _rewrite(
        "C1", {"a/BUILD": _build("a"), "b/BUILD": _build("b", ["//a:a"])}
    )
    unrelated = _rewrite("C2", {"e/e.py": "E2"})
    assert analyzer.conflict(reversal, unrelated) is False
    assert analyzer.stats.slow_path == 1
    assert analyzer.conflict_equation6(reversal, unrelated) is False
    # It still conflicts with what it does reach.
    assert analyzer.conflict(reversal, _rewrite("C3", {"a/a.py": "A2"})) is True


def test_opposite_edges_pair_conflicts():
    """``c -> d`` in one change, ``d -> c`` in the other: acyclic apart,
    a cycle together — a conflict, not an exception."""
    analyzer = ConflictAnalyzer(BuildContext.load(dict(CYCLE_BASE)))
    forward = _rewrite("C1", {"c/BUILD": _build("c", ["//d:d"])})
    backward = _rewrite("C2", {"d/BUILD": _build("d", ["//c:c"])})
    assert analyzer.conflict(forward, backward) is True
    assert analyzer.stats.slow_path == 1


# -- the cached taint set ---------------------------------------------------------


def test_taint_is_the_direct_tagging_including_removed_targets():
    analyzer = ConflictAnalyzer(BuildContext.load(dict(CYCLE_BASE)))
    edit = _rewrite("C1", {"b/b.py": "B2"})
    content = analyzer.analyze(edit)
    assert content.taint == {"//a:a", "//b:b"}
    assert content.taint == {item.name for item in analyzer.affected_targets(edit)}

    removal = Change(
        "C2", "R-C2", _DEV, patch=Patch.deleting(["e/BUILD", "e/e.py"])
    )
    analysis = analyzer.analyze(removal)
    # Nothing changed or appeared.
    assert analyzer.affected_targets(removal) == frozenset()
    assert analysis.taint == {"//e:e"}
    assert analysis.taint == _taint(
        analyzer.base.hashes, analyzer.base.derive_stack((removal.patch,)).hashes
    )
    assert analyzer.conflict(removal, _rewrite("C3", {"c/c.py": "C2"})) is False
    # No shared path and no shared delta name: the removed target's taint
    # reaches ``d`` along the edge only the other change's graph has.
    depends_on_e = _rewrite("C4", {"d/BUILD": _build("d", ["//e:e"])})
    assert analyzer.conflict(removal, depends_on_e) is True


# -- pair cost follows the cones, not the repository ------------------------------


def _calls_inside(function, *args):
    """Python and C calls made while ``function(*args)`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _slow_pair_cost(islands):
    """One structural vs one content change on island 0 of ``islands``."""
    synths = [
        SyntheticMonorepo(
            MonorepoSpec(layers=(3, 4, 3), fan_in=2, package_prefix=f"island{k}/"),
            seed=5,
        )
        for k in range(islands)
    ]
    files = {}
    for synth in synths:
        files.update(synth.repo.snapshot().to_dict())
    home = synths[0]
    structural = home.make_structural_change()
    content = home.make_clean_change(home.target_names(layer=0)[1])
    analyzer = ConflictAnalyzer(BuildContext.load(files))
    # Per-change analysis is paid once per change, not per pair.
    analyzer.analyze(structural)
    analyzer.analyze(content)
    verdict, calls = _calls_inside(analyzer.conflict, structural, content)
    assert analyzer.stats.slow_path == 1
    return verdict, calls, sum(path.endswith("/BUILD") for path in files)


def test_slow_path_pair_cost_does_not_scale_with_repository_size():
    verdict_small, calls_small, targets_small = _slow_pair_cost(islands=1)
    verdict_big, calls_big, targets_big = _slow_pair_cost(islands=8)
    assert targets_big == 8 * targets_small
    # Disjoint cones: the walk drains completely, its worst case.
    assert verdict_small is False and verdict_big is False
    assert calls_big == calls_small
