"""Property tests for the section-5.1 hash-stability invariants.

The conflict analyzer is only sound if Algorithm-1 hashes behave like
perfect input fingerprints:

* touching anything *outside* a target's transitive closure — renaming an
  unrelated file, editing a non-dependency's source, adding unrelated
  files — never changes the target's hash;
* editing the content of *any* transitive dependency's source always does.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import DigestMemo, TargetHasher, incremental_hashes
from repro.buildsys.loader import load_build_graph
from repro.buildsys.target import Target
from repro.types import StepKind


@st.composite
def graph_and_files(draw):
    """A random layered DAG plus a source snapshot (with stray files)."""
    layer_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4)
    )
    targets = []
    files = {}
    previous_layer = []
    for layer_index, size in enumerate(layer_sizes):
        current = []
        for slot in range(size):
            name = f"//l{layer_index}:t{slot}"
            src = f"l{layer_index}/t{slot}.py"
            files[src] = draw(
                st.text(alphabet=string.ascii_letters, max_size=12)
            )
            deps = ()
            if previous_layer:
                picks = draw(
                    st.lists(
                        st.sampled_from(previous_layer), max_size=2, unique=True
                    )
                )
                deps = tuple(sorted(picks))
            targets.append(Target(name, srcs=(src,), deps=deps))
            current.append(name)
        previous_layer = current
    # Stray files no target owns: renaming/editing them must be invisible.
    files["stray/readme.txt"] = "stray"
    graph = BuildGraph(targets)
    graph.validate()
    return graph, files


class TestClosureOutsideIsInvisible:
    @given(graph_and_files(), st.data())
    @settings(max_examples=60)
    def test_renaming_an_unowned_file_never_changes_any_hash(
        self, graph_and_files_pair, data
    ):
        graph, files = graph_and_files_pair
        before = TargetHasher(graph, files).all_hashes()
        renamed = dict(files)
        renamed["stray/renamed.txt"] = renamed.pop("stray/readme.txt")
        after = TargetHasher(graph, renamed).all_hashes()
        assert before == after

    @given(graph_and_files(), st.data())
    @settings(max_examples=60)
    def test_editing_a_non_dependency_never_changes_the_hash(
        self, graph_and_files_pair, data
    ):
        graph, files = graph_and_files_pair
        names = sorted(target.name for target in graph)
        observed = data.draw(st.sampled_from(names), label="observed target")
        closure = {observed} | graph.transitive_deps(observed)
        outside = sorted(set(names) - closure)
        if not outside:
            return
        edited = data.draw(st.sampled_from(outside), label="edited non-dep")
        src = graph.target(edited).srcs[0]
        changed = dict(files, **{src: files[src] + "#edit"})
        before = TargetHasher(graph, files).all_hashes()[observed]
        after = TargetHasher(graph, changed).all_hashes()[observed]
        assert before == after

    @given(graph_and_files())
    @settings(max_examples=40)
    def test_adding_unrelated_files_never_changes_any_hash(
        self, graph_and_files_pair
    ):
        graph, files = graph_and_files_pair
        before = TargetHasher(graph, files).all_hashes()
        grown = dict(files, **{"docs/notes.md": "unowned", "extra.cfg": "x"})
        after = TargetHasher(graph, grown).all_hashes()
        assert before == after


class TestClosureInsideAlwaysRipples:
    @given(graph_and_files(), st.data())
    @settings(max_examples=60)
    def test_editing_any_transitive_dep_always_changes_the_hash(
        self, graph_and_files_pair, data
    ):
        graph, files = graph_and_files_pair
        names = sorted(target.name for target in graph)
        observed = data.draw(st.sampled_from(names), label="observed target")
        closure = sorted({observed} | graph.transitive_deps(observed))
        edited = data.draw(st.sampled_from(closure), label="edited dep")
        src = graph.target(edited).srcs[0]
        changed = dict(files, **{src: files[src] + "#edit"})
        before = TargetHasher(graph, files).all_hashes()[observed]
        after = TargetHasher(graph, changed).all_hashes()[observed]
        assert before != after


class TestLoadedGraphsAgree:
    def test_build_file_route_matches_direct_construction(self):
        """Hashes must not depend on how the graph was constructed."""
        snapshot = {
            "a/BUILD": "target(name='a', srcs=['a.py'])",
            "a/a.py": "A",
            "b/BUILD": "target(name='b', srcs=['b.py'], deps=['//a:a'])",
            "b/b.py": "B",
        }
        loaded = load_build_graph(snapshot)
        direct = BuildGraph(
            [
                Target("//a:a", srcs=("a/a.py",)),
                Target("//b:b", srcs=("b/b.py",), deps=("//a:a",)),
            ]
        )
        assert (
            TargetHasher(loaded, snapshot).all_hashes()
            == TargetHasher(direct, snapshot).all_hashes()
        )


#: The shared memo's universe: three layers of two targets, two candidate
#: sources each, dependencies on any lower layer.
MEMO_TARGETS = [f"//l{layer}:t{slot}" for layer in range(3) for slot in range(2)]
MEMO_STEPS = (
    None,
    (StepKind.COMPILE,),
    (StepKind.COMPILE, StepKind.UNIT_TEST, StepKind.ARTIFACT),
)
EDIT, DELETE, EMPTY, DECLARE, ROTATE = range(5)

memo_op_strategy = st.tuples(
    st.sampled_from([EDIT, EDIT, DELETE, EMPTY, DECLARE, DECLARE, ROTATE]),
    st.integers(min_value=0, max_value=2**16),
    st.text(alphabet="ab", max_size=2),
)


def _memo_sources(name):
    stem = name[2:].replace(":", "/")
    return (f"{stem}_a.py", f"{stem}_b.py")


def _memo_graph(declarations):
    graph = BuildGraph(
        [
            Target(name, srcs=srcs, deps=deps, steps=steps)
            for name, (srcs, deps, steps) in declarations.items()
        ]
    )
    graph.validate()
    return graph


class TestSharedDigestMemo:
    @given(st.lists(memo_op_strategy, min_size=1, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_memoised_hashing_equals_fresh_hashing(self, ops):
        """One :class:`DigestMemo` carried across content edits, files
        going absent or empty, same-named targets re-declared with other
        ``srcs``/``deps``/``steps``, and memo rotations never changes a
        digest — unseeded or seeded — nor what ``computed`` counts."""
        declarations = {
            name: (_memo_sources(name), (), None) for name in MEMO_TARGETS
        }
        files = {
            path: "v0" for name in MEMO_TARGETS for path in _memo_sources(name)
        }
        memo = DigestMemo()
        graph = _memo_graph(declarations)
        hashes = TargetHasher(graph, files, digest_memo=memo).all_hashes()
        assert hashes == TargetHasher(graph, files).all_hashes()

        for kind, seed, text in ops:
            name = MEMO_TARGETS[seed % len(MEMO_TARGETS)]
            path = _memo_sources(name)[(seed >> 4) % 2]
            touched = [path]
            if kind == EDIT:
                files[path] = text
            elif kind == DELETE:
                files.pop(path, None)  # absent ...
            elif kind == EMPTY:
                files[path] = ""  # ... is not the same as empty
            elif kind == DECLARE:
                lower = [n for n in MEMO_TARGETS if n[3] < name[3]]
                declarations[name] = (
                    tuple(
                        src
                        for bit, src in enumerate(_memo_sources(name))
                        if (seed >> (6 + bit)) & 1
                    ),
                    tuple(
                        dep
                        for bit, dep in enumerate(lower)
                        if (seed >> (8 + bit)) & 1
                    ),
                    MEMO_STEPS[(seed >> 12) % len(MEMO_STEPS)],
                )
                touched = []
            else:
                memo.rotate()
                touched = []

            base_graph, base_hashes = graph, hashes
            graph = _memo_graph(declarations)
            fresh = TargetHasher(graph, files)
            expected = fresh.all_hashes()
            memoised = TargetHasher(graph, files, digest_memo=memo)
            assert memoised.all_hashes() == expected
            assert memoised.computed == fresh.computed == len(graph)
            hashes, _, computed, _ = incremental_hashes(
                base_graph, base_hashes, graph, files, touched, memo
            )
            assert hashes == expected
            assert computed == incremental_hashes(
                base_graph, base_hashes, graph, files, touched
            )[2]

    def test_a_memo_keeps_two_generations(self):
        graph = BuildGraph([Target("//a:a", srcs=("a/a.py",))])
        memo = DigestMemo()
        TargetHasher(graph, {"a/a.py": "A"}, digest_memo=memo).all_hashes()
        TargetHasher(graph, {"a/a.py": "B"}, digest_memo=memo).all_hashes()
        assert len(memo) == 2
        memo.rotate()
        # Used again in the new generation: promoted, and so kept ...
        TargetHasher(graph, {"a/a.py": "A"}, digest_memo=memo).all_hashes()
        memo.rotate()
        assert len(memo) == 1
        # ... while the idle one is gone two rotations after its last use.
        memo.rotate()
        assert len(memo) == 0
