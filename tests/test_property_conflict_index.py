"""The candidate index against the full sweep (section 5.2).

``ConflictAnalyzer.conflict_candidates`` may leave out only pairs whose
verdict is ``False``.  Over the seven-target model and edit alphabet of
``test_property_union_cone`` — content edits, added and removed targets,
added, dropped and reversed deps, a moved source, BUILD files that do not
load, overlapping textual edits, plus a path no target owns — with head
advances (structural and not) and forgets interleaved, a conflict graph
fed the candidates must hold the full sweep's edges at every step, and
``checks + skipped`` must count exactly the pairs the full sweep checks.

The three pinned examples are the escape sets: drop the shared-path, the
structural or the un-analysable entries from the look-up and the matching
one fails.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.buildsys.executor import BuildContext
from repro.buildsys.loader import load_build_graph
from repro.changes.change import Change
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import BuildSystemError
from repro.vcs.patch import FileOp, OpKind, Patch

from .test_property_union_cone import BASE_DECLS, BASE_FILES, _apply
from .test_property_union_cone import edits as cone_edits
from .test_unbuildable_change import _DEV

#: The one path no target owns: edits to it overlap textually and taint
#: nothing.
NOTES = "docs/notes.md"


def _render(decls, files, notes):
    """The model as a snapshot: one package per target, its sources
    beside its BUILD file (so a moved source is a delete plus an add)."""
    snapshot = {NOTES: notes} if notes else {}
    for name, (srcs, deps) in decls.items():
        package = name[2:].partition(":")[0]
        local = [src.rpartition("/")[2] for src in srcs]
        snapshot[f"{package}/BUILD"] = (
            f"target(name={package!r}, srcs={local!r}, deps={list(deps)!r})\n"
        )
        for src, leaf in zip(srcs, local):
            snapshot[f"{package}/{leaf}"] = files[src]
    return snapshot


def _patch(old, new):
    ops = []
    for path in sorted(old.keys() | new.keys()):
        before, after = old.get(path), new.get(path)
        if before is None:
            ops.append(FileOp(OpKind.ADD, path, after))
        elif after is None:
            ops.append(FileOp(OpKind.DELETE, path))
        elif before != after:
            ops.append(FileOp(OpKind.MODIFY, path, after, base_content=before))
    return Patch(ops)


class _Model:
    """The head as the model sees it, and patches minted against it."""

    def __init__(self):
        self.decls, self.files, self.notes = dict(BASE_DECLS), dict(BASE_FILES), ""
        self.serial = 0

    def snapshot(self):
        return _render(self.decls, self.files, self.notes)

    def edited(self, edits):
        """``(decls, files, notes)`` after ``edits``; every file they
        changed is stamped, so two authors never agree on a post-image."""
        self.serial += 1
        decls, files, notes = dict(self.decls), dict(self.files), self.notes
        for edit in edits:
            if edit[0] == "note":
                notes += "n"
            else:
                _apply(edit, decls, files)
        for path, content in files.items():
            if self.files.get(path) != content:
                files[path] = f"{content}#{self.serial}"
        if notes != self.notes:
            notes = f"{notes}#{self.serial}"
        return decls, files, notes


_edit_lists = st.lists(
    st.one_of(
        cone_edits,
        st.tuples(st.just("note"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=3,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("pend"), _edit_lists),
        st.tuples(st.just("commit"), _edit_lists),
        st.tuples(st.just("forget"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=2,
    max_size=10,
)


def _edges(graph):
    return {change_id: graph.neighbors(change_id) for change_id in graph.in_order()}


@given(steps=steps)
@example(  # shared path: both add the unowned notes file, differently
    steps=[("pend", [("note", None, None)]), ("pend", [("note", None, None)])]
)
@example(  # structural: g's new edge carries a's taint to g; no shared name
    steps=[
        ("pend", [("add_dep", "//g:g", "//a:a")]),
        ("pend", [("content", "//a:a", None)]),
    ]
)
@example(  # un-analysable: a dangling dep, answered True against anything
    steps=[
        ("pend", [("add_dep", "//g:g", "//y:y")]),
        ("pend", [("content", "//b:b", None)]),
    ]
)
@settings(max_examples=400, deadline=None)
def test_candidate_sweep_matches_the_full_sweep(steps):
    model = _Model()
    full = ConflictAnalyzer(BuildContext.load(model.snapshot()))
    indexed = ConflictAnalyzer(BuildContext.load(model.snapshot()))
    full_graph = ConflictGraph(full.conflict)
    indexed_graph = ConflictGraph(indexed.conflict)
    pending = []
    for op, arg in steps:
        head = model.snapshot()
        if op == "forget":
            if pending:
                decided = pending.pop(arg % len(pending))
                for analyzer, graph in ((full, full_graph), (indexed, indexed_graph)):
                    analyzer.forget(decided.change_id)
                    graph.remove(decided.change_id)
        else:
            decls, files, notes = model.edited(arg)
            patch = _patch(head, _render(decls, files, notes))
            if not patch:
                continue
            if op == "pend":
                change = Change(
                    f"C{model.serial}", f"R{model.serial}", _DEV, patch=patch
                )
                full_graph.add(change)
                indexed_graph.add(
                    change, indexed.conflict_candidates(change, pending)
                )
                pending.append(change)
            else:
                new_head = patch.apply(head).to_dict()
                try:
                    load_build_graph(new_head).topological_order()
                except BuildSystemError:
                    continue  # the queue never commits an unloadable head
                model.decls, model.files, model.notes = decls, files, notes
                for analyzer in (full, indexed):
                    analyzer.advance_base(
                        analyzer.base.derive_stack((patch,)).as_root(),
                        patch.paths,
                    )
        assert _edges(indexed_graph) == _edges(full_graph)
        assert indexed.stats.checks + indexed.stats.skipped == full.stats.checks
