"""Property test: ``BuildContext.derive_stack`` is the chained fold, in one step.

Random patch stacks are minted over a synthetic monorepo, each patch cut
from the snapshot the patches before it produce — so stacks revisit the
same path (modify-after-modify, add-after-delete), add and delete whole
packages, delete single sources, and rewrite BUILD files — and,
optionally, the *k*-th patch is made to conflict.  ``derive_stack`` must
then agree with both references:

* the chained fold (one ``Patch.apply`` + ``derive`` per patch), and
* the from-scratch path (apply to a plain dict, reload the graph, rehash
  everything — what ``oracles.ScratchBuildController`` does)

on the merged snapshot, the full hash map, ``affected_against(base)``
order included, and — for a conflicting stack — the path and message of
the :class:`~repro.errors.PatchConflictError`.  Controller and worker are
checked to report the same steps for one key through the shared function,
and a key that still assumes a landed prefix of the stack must build
``HEAD ⊕ unlanded`` on both and in the oracle.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.buildsys.executor import BuildContext
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.loader import load_build_graph
from repro.changes.change import Change, Developer
from repro.errors import PatchConflictError
from repro.parallel.worker import execute_request, reset_worker_state
from repro.planner.controller import FullStackBuildController
from repro.types import BuildKey
from repro.vcs.patch import FileOp, OpKind, Patch
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

from .oracles import ScratchBuildController, apply_in_order

DEV = Developer("stack-dev")
BASE = SyntheticMonorepo(
    MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=5
).repo.snapshot().to_dict()

_ALL_STEPS = "steps = ['compile', 'unit_test']"
_COMPILE_ONLY = "steps = ['compile']"


def _packages(current):
    return sorted(
        path[: -len("/BUILD")] for path in current if path.endswith("/BUILD")
    )


def _deletable_packages(current):
    """Packages no other target depends on (deleting one keeps the graph valid)."""
    graph = load_build_graph(current)
    return sorted(
        target.package for target in graph if not graph.direct_dependents(target.name)
    )


def _modify(current, path, content):
    return FileOp(OpKind.MODIFY, path, content, base_content=current[path])


def _draw_patch(data, current, index):
    """One applicable patch against ``current``."""
    kind = data.draw(
        st.sampled_from(
            ["modify", "modify", "add_pkg", "delete_pkg", "delete_src",
             "readd_src", "build_steps", "build_srcs"]
        ),
        label=f"kind[{index}]",
    )
    sources = sorted(p for p in current if not p.endswith("/BUILD"))
    if kind == "add_pkg":
        package = f"extra/p{index}"
        dep = data.draw(
            st.sampled_from(["//layer0/t000:lib", "//layer0/t001:lib"])
        )
        return Patch.adding(
            {
                f"{package}/BUILD": (
                    f"target(name = 'lib', srcs = ['mod.py'], deps = [{dep!r}])\n"
                ),
                f"{package}/mod.py": f"EXTRA = {index}\n",
            }
        )
    if kind == "delete_pkg":
        package = data.draw(st.sampled_from(_deletable_packages(current)))
        return Patch.deleting(
            sorted(p for p in current if p.startswith(f"{package}/"))
        )
    if kind == "delete_src" and sources:
        return Patch.deleting([data.draw(st.sampled_from(sources))])
    if kind == "readd_src":
        # A source some BUILD still lists but an earlier patch deleted.
        graph = load_build_graph(current)
        gone = sorted(
            src for target in graph for src in target.srcs if src not in current
        )
        if gone:
            path = data.draw(st.sampled_from(gone))
            return Patch.adding({path: f"# back at {index}\n"})
    if kind in ("build_steps", "build_srcs"):
        package = data.draw(st.sampled_from(_packages(current)))
        build_path = f"{package}/BUILD"
        text = current[build_path]
        for old, new in ((_ALL_STEPS, _COMPILE_ONLY), (_COMPILE_ONLY, _ALL_STEPS)):
            if kind == "build_steps" and old in text:
                return Patch(
                    [_modify(current, build_path, text.replace(old, new))]
                )
        new_src = f"{package}/added_{index}.py"
        if "srcs = ['src_0.py', 'src_1.py']" in text:
            return Patch(
                [
                    _modify(
                        current,
                        build_path,
                        text.replace(
                            "srcs = ['src_0.py', 'src_1.py']",
                            f"srcs = ['src_0.py', 'src_1.py', 'added_{index}.py']",
                        ),
                    ),
                    FileOp(OpKind.ADD, new_src, f"ADDED = {index}\n"),
                ]
            )
    path = data.draw(st.sampled_from(sources))
    return Patch([_modify(current, path, current[path] + f"# edit {index}\n")])


def _conflicting_patch(data, current, index):
    """A patch that cannot apply to ``current``."""
    sources = sorted(p for p in current if not p.endswith("/BUILD"))
    path = data.draw(st.sampled_from(sources))
    kind = data.draw(
        st.sampled_from(
            ["stale_modify", "add_existing", "delete_missing", "modify_missing"]
        ),
        label=f"conflict[{index}]",
    )
    if kind == "stale_modify":
        return Patch(
            [FileOp(OpKind.MODIFY, path, "NEW = 1\n", base_content="# stale\n")]
        )
    if kind == "add_existing":
        return Patch([FileOp(OpKind.ADD, path, current[path] + "# other\n")])
    if kind == "delete_missing":
        return Patch.deleting([f"nowhere/gone_{index}.py"])
    return Patch([FileOp(OpKind.MODIFY, f"nowhere/gone_{index}.py", "X = 1\n")])


def _draw_stack(data, conflict):
    size = data.draw(st.integers(min_value=1, max_value=7), label="stack size")
    conflict_at = (
        data.draw(st.integers(min_value=0, max_value=size - 1), label="conflict at")
        if conflict
        else None
    )
    current = dict(BASE)
    patches = []
    for index in range(size):
        if index == conflict_at:
            patches.append(_conflicting_patch(data, current, index))
            continue  # later patches are still minted, never reached
        patch = _draw_patch(data, current, index)
        patches.append(patch)
        current = patch.apply(current).to_dict()
    return patches


def _chained(base, patches):
    context = base
    for patch in patches:
        context = context.derive(patch.apply(context.snapshot), patch.paths)
    return context


def _scratch(patches):
    merged = apply_in_order(BASE, patches)
    graph = load_build_graph(merged)
    hashes = TargetHasher(graph, merged).all_hashes()
    return merged, graph, hashes


def _changes(patches):
    # Zero-padded ids: the controller folds in sorted-id order.
    return {
        f"c{i:02d}": Change(
            change_id=f"c{i:02d}", revision_id="R1", developer=DEV, patch=patch
        )
        for i, patch in enumerate(patches)
    }


def _assert_controllers_agree(patches):
    """The controller's ``execute`` == the from-scratch oracle's for the
    whole stack."""
    changes = _changes(patches)
    ids = sorted(changes)
    key = BuildKey(ids[-1], frozenset(ids[:-1]))
    warm = FullStackBuildController(Repository(dict(BASE))).execute(key, changes)
    cold = ScratchBuildController(Repository(dict(BASE))).execute(key, changes)
    assert warm == cold
    return warm


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_clean_stack_matches_chained_fold_and_scratch(data):
    patches = _draw_stack(data, conflict=False)
    base = BuildContext.load(dict(BASE))

    stacked = base.derive_stack(patches)
    chained = _chained(base, patches)
    merged, scratch_graph, scratch_hashes = _scratch(patches)

    assert stacked.snapshot == chained.snapshot == merged
    assert stacked.hashes == chained.hashes == scratch_hashes
    scratch_order = [
        name
        for name in scratch_graph.topological_order()
        if base.hashes.get(name) != scratch_hashes[name]
    ]
    assert stacked.affected_against(base) == chained.affected_against(base)
    assert stacked.affected_against(base) == scratch_order
    _assert_controllers_agree(patches)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_conflicting_stack_raises_where_the_chained_fold_does(data):
    patches = _draw_stack(data, conflict=True)
    base = BuildContext.load(dict(BASE))

    with pytest.raises(PatchConflictError) as stacked:
        base.derive_stack(patches)
    with pytest.raises(PatchConflictError) as chained:
        _chained(base, patches)
    with pytest.raises(PatchConflictError) as scratch:
        _scratch(patches)
    assert (
        (stacked.value.path, str(stacked.value))
        == (chained.value.path, str(chained.value))
        == (scratch.value.path, str(scratch.value))
    )

    warm = _assert_controllers_agree(patches)
    assert warm.failure_reason == f"merge conflict: {stacked.value}"


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_key_assuming_a_landed_prefix_stacks_only_the_rest(data):
    """Land a prefix of the stack, then build the key that still assumes
    it: inline, on a worker and in the oracle it is ``HEAD ⊕ unlanded``."""
    patches = _draw_stack(data, conflict=False)
    assume(len(patches) >= 2)
    landed = data.draw(
        st.integers(min_value=1, max_value=len(patches) - 1), label="landed"
    )
    changes = _changes(patches)
    ids = sorted(changes)
    key = BuildKey(ids[-1], frozenset(ids[:-1]))
    decided = {cid: True for cid in ids[:landed]}

    def landed_controller(cls):
        controller = cls(Repository(dict(BASE)))
        controller.base_context()  # landing advances it, as in a service
        for cid in ids[:landed]:
            controller.on_commit(changes[cid], changes)
        return controller

    inline = landed_controller(FullStackBuildController).execute(
        key, changes, decided
    )
    assert inline == landed_controller(ScratchBuildController).execute(
        key, changes, decided
    )
    pooled = landed_controller(FullStackBuildController)
    request = pooled._build_request(0, key, changes, decided)
    assert [cid for cid, _ in request.assumed] == ids[landed:-1]
    reset_worker_state()
    try:
        response = execute_request(request)
    finally:
        reset_worker_state()
    assert pooled._merge_response(key, response) == inline
    # A head that already holds the prefix, asked for the rest only.
    head = Repository(apply_in_order(BASE, patches[:landed]))
    rest = BuildKey(ids[-1], frozenset(ids[landed:-1]))
    fresh = FullStackBuildController(head).execute(rest, changes)
    assert dataclasses.replace(fresh, key=key) == inline


@pytest.mark.parametrize("conflict", [False, True])
def test_controller_and_worker_report_identical_steps(conflict):
    """One key, two callers of ``derive_stack``: same targets, steps, digests."""
    repo = SyntheticMonorepo(MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=5)
    # Distinct targets so the clean stack merges cleanly.
    stack = [
        repo.make_clean_change(name)
        for name in repo.target_names(layer=0) + repo.target_names(layer=1)[:1]
    ]
    if conflict:
        stack.append(repo.make_clean_change(repo.target_names(layer=0)[0]))
    changes = {change.change_id: change for change in stack}
    key = BuildKey(
        stack[-1].change_id, frozenset(c.change_id for c in stack[:-1])
    )
    controller = FullStackBuildController(repo.repo)
    reset_worker_state()
    try:
        response = execute_request(controller._build_request(0, key, changes))
    finally:
        reset_worker_state()
    assert response.error is None
    inline = FullStackBuildController(repo.repo).execute(key, changes)
    merged = controller._merge_response(key, response)
    assert merged == inline
    if conflict:
        assert response.merge_conflict is not None and response.steps == ()
        assert inline.failure_reason == f"merge conflict: {response.merge_conflict}"
    else:
        assert inline.success and response.targets == inline.targets_built
        # Every step the worker walked carries the digest the inline path
        # hashed for that target.
        context = BuildContext.load(repo.repo.snapshot().to_dict()).derive_stack(
            [changes[cid].patch for cid in sorted(changes)]
        )
        assert [(s.target, s.digest) for s in response.steps] == [
            (name, context.hashes[name])
            for name in inline.targets_built
            for _ in context.graph.target(name).steps
        ]
