"""Property test: the incremental analyzer is indistinguishable from a
from-scratch one.

For random sequences of pending changes, mainline commits (one at a time,
or two at once as a service advances lazily over a union of commits), and
decisions, a single carried-over :class:`ConflictAnalyzer` (overlays +
dirty-set hashing + ``advance_base`` revalidation + ``forget`` eviction)
must produce exactly the same affected targets, taints, structure flags,
base hash maps, and pairwise verdicts as a fresh analyzer rebuilt from the
head snapshot at every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.buildsys.executor import BuildContext
from repro.changes.change import Change, Developer, next_change_id
from repro.conflict.analyzer import ConflictAnalyzer
from repro.vcs.patch import Patch

from .oracles import graph_structure

DEV = Developer("prop-dev")

#: p0 <- p1 <- p2, p3 independent, p4 depends on p0 and p3.
BASE_FILES = {}
_DEPS = {0: [], 1: ["//p0:t"], 2: ["//p1:t"], 3: [], 4: ["//p0:t", "//p3:t"]}
for _i in range(5):
    BASE_FILES[f"p{_i}/a.py"] = f"A{_i} = 0\n"
    BASE_FILES[f"p{_i}/b.py"] = f"B{_i} = 0\n"
    BASE_FILES[f"p{_i}/BUILD"] = (
        "target(\n"
        f"    name = 't',\n"
        f"    srcs = ['a.py', 'b.py'],\n"
        f"    deps = {_DEPS[_i]!r},\n"
        ")\n"
    )

PEND, COMMIT, DECIDE, COMMIT_TWO = 0, 1, 2, 3

step_strategy = st.tuples(
    st.sampled_from([PEND, PEND, COMMIT, COMMIT, DECIDE, COMMIT_TWO]),
    st.integers(min_value=0, max_value=3),  # patch kind (0/1 src, 2 BUILD, 3 new pkg)
    st.integers(min_value=0, max_value=4),  # package choice
    st.integers(min_value=0, max_value=1),  # source-file choice
)


def _mint_patch(head, kind, pkg, src, serial):
    """A patch against the current ``head`` snapshot (no base pinning, so
    it always applies as long as paths exist — the sequences never delete)."""
    if kind == 3:
        package = f"gen{serial}"
        return Patch.adding(
            {
                f"{package}/n.py": f"N = {serial}\n",
                f"{package}/BUILD": (
                    f"target(name = 't', srcs = ['n.py'], deps = ['//p{pkg}:t'])\n"
                ),
            }
        )
    if kind == 2:
        path = f"p{pkg}/BUILD"
        # Appending a comment touches the BUILD file without changing any
        # target definition: structure must stay unchanged.
        return Patch.modifying({path: head[path] + f"# tweak {serial}\n"})
    path = f"p{pkg}/{'ab'[src]}.py"
    return Patch.modifying({path: f"EDIT = {serial}\n"})


def _change(patch):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        patch=patch,
        base_commit=None,
    )


def _assert_equivalent(incremental, head, pending):
    fresh = ConflictAnalyzer(BuildContext.load(dict(head)))
    assert incremental.base.hashes == fresh.base.hashes
    assert graph_structure(incremental.base.graph) == graph_structure(
        fresh.base.graph
    )
    for change in pending:
        a = incremental.analyze(change)
        b = fresh.analyze(change)
        assert incremental.affected_targets(change) == fresh.affected_targets(
            change
        ), change.change_id
        assert a.structure_changed == b.structure_changed, change.change_id
        # With the bases equal, equal deltas and taints are equal hash
        # maps: a change's map is its base's plus its delta, minus what
        # it removed.
        assert a.taint == b.taint, change.change_id
    # The candidate index is the one the cached analyses would build.
    by_taint, by_path = {}, {}
    for change_id, analysis in incremental._per_change.items():
        if not analysis.structure_changed:
            for name in analysis.taint:
                by_taint.setdefault(name, set()).add(change_id)
            for path in analysis.touched:
                by_path.setdefault(path, set()).add(change_id)
    assert (incremental._by_taint, incremental._by_path) == (by_taint, by_path)
    for i, first in enumerate(pending):
        for second in pending[i + 1:]:
            assert incremental.conflict(first, second) == fresh.conflict(
                first, second
            ), (first.change_id, second.change_id)


@given(st.lists(step_strategy, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
# A content-only commit below a pending edit: p2's digests move, its
# names do not.
@example([(PEND, 0, 2, 0), (COMMIT, 0, 0, 0), (PEND, 1, 2, 1)])
# An added package depending on p2, which the first pending edit taints
# and the second does not.
@example([(PEND, 0, 1, 0), (PEND, 0, 3, 0), (COMMIT, 3, 2, 0)])
# BUILD comment tweaks, pending and committed: a new graph object, the
# same structure.
@example([(PEND, 2, 3, 0), (PEND, 0, 1, 0), (COMMIT, 2, 0, 0), (COMMIT, 0, 4, 1)])
# Two commits in one advance: an added package and a content edit.
@example([(PEND, 0, 3, 0), (PEND, 2, 4, 0), (COMMIT_TWO, 1, 0, 1)])
def test_incremental_equals_from_scratch_across_head_advances(steps):
    head = dict(BASE_FILES)
    analyzer = ConflictAnalyzer(BuildContext.load(dict(head)))
    pending = []

    for serial, (action, kind, pkg, src) in enumerate(steps):
        if action == PEND:
            change = _change(_mint_patch(head, kind, pkg, src, serial))
            pending.append(change)
            analyzer.analyze(change)
        elif action == COMMIT:
            patch = _mint_patch(head, kind, pkg, src, 1_000 + serial)
            head = patch.apply(head).to_dict()
            analyzer.advance_base(
                analyzer.base.derive_stack((patch,)).as_root(), patch.paths
            )
        elif action == COMMIT_TWO:
            # A package depending on p{pkg}, and an edit of p{pkg + kind}.
            added = _mint_patch(head, 3, pkg, src, 1_000 + serial)
            edited = _mint_patch(head, src, (pkg + kind) % 5, src, 2_000 + serial)
            head = edited.apply(added.apply(head)).to_dict()
            analyzer.advance_base(
                analyzer.base.derive_stack((added, edited)).as_root(),
                set(added.paths) | set(edited.paths),
            )
        else:  # DECIDE: the oldest pending change leaves the queue
            if pending:
                decided = pending.pop(0)
                analyzer.forget(decided.change_id)
        _assert_equivalent(analyzer, head, pending)

    # Eviction really bounds the caches: forget everything and check empty.
    for change in pending:
        analyzer.forget(change.change_id)
    assert analyzer.cached_change_ids() == frozenset()
    assert not analyzer._by_taint and not analyzer._by_path
    assert not analyzer._structural
