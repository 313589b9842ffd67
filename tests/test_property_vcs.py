"""Property-based tests for the VCS substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vcs.patch import (
    FileOp,
    OpKind,
    Patch,
    SnapshotOverlay,
    three_way_conflicts,
)
from repro.vcs.repository import Repository

path_strategy = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
content_strategy = st.text(alphabet=string.printable, max_size=40)
snapshot_strategy = st.dictionaries(path_strategy, content_strategy, max_size=8)


def patch_for(snapshot, edits, adds, deletes):
    """Build a patch guaranteed to apply cleanly to ``snapshot``."""
    patch = Patch()
    used = set()
    for path, content in edits:
        if path in snapshot and path not in used:
            patch.add_op(FileOp(OpKind.MODIFY, path, content,
                                base_content=snapshot[path]))
            used.add(path)
    for path, content in adds:
        if path not in snapshot and path not in used:
            patch.add_op(FileOp(OpKind.ADD, path, content))
            used.add(path)
    for path in deletes:
        if path in snapshot and path not in used:
            patch.add_op(FileOp(OpKind.DELETE, path))
            used.add(path)
    return patch


clean_patch_inputs = st.tuples(
    st.lists(st.tuples(path_strategy, content_strategy), max_size=4),
    st.lists(st.tuples(path_strategy, content_strategy), max_size=4),
    st.lists(path_strategy, max_size=4),
)


class TestPatchProperties:
    @given(snapshot_strategy, clean_patch_inputs)
    @settings(max_examples=120)
    def test_apply_matches_delta(self, snapshot, inputs):
        patch = patch_for(snapshot, *inputs)
        result = patch.apply(snapshot)
        for path, content in patch.delta().items():
            if content is None:
                assert path not in result
            else:
                assert result[path] == content
        # Untouched paths unchanged.
        for path in set(snapshot) - patch.paths:
            assert result[path] == snapshot[path]

    @given(snapshot_strategy, clean_patch_inputs, clean_patch_inputs)
    @settings(max_examples=80)
    def test_nonconflicting_patches_commute(self, snapshot, fi, si):
        first = patch_for(snapshot, *fi)
        second = patch_for(snapshot, *si)
        if three_way_conflicts(first, second):
            return
        if first.paths & second.paths:
            return  # identical-content overlap: order still irrelevant, skip
        ab = second.apply(first.apply(snapshot))
        ba = first.apply(second.apply(snapshot))
        assert ab == ba


class TestRepositoryProperties:
    @given(st.lists(clean_patch_inputs, max_size=6), snapshot_strategy)
    @settings(max_examples=60)
    def test_history_replay_reaches_head_snapshot(self, patch_inputs, initial):
        repo = Repository(initial)
        snapshots = [repo.snapshot().to_dict()]
        for inputs in patch_inputs:
            patch = patch_for(snapshots[-1], *inputs)
            repo.commit_to_mainline(patch)
            snapshots.append(repo.snapshot().to_dict())
        # Replaying the history from the root reproduces every snapshot.
        replay = dict(initial)
        for commit_id, expected in zip(repo.mainline_history()[1:], snapshots[1:]):
            commit = repo.commit(commit_id)
            for path, content in commit.delta.items():
                if content is None:
                    replay.pop(path, None)
                else:
                    replay[path] = content
            assert replay == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_green_fraction_counts(self, greens):
        repo = Repository({"a": "0"})
        for index, green in enumerate(greens):
            patch = patch_for(repo.snapshot().to_dict(), [("a", str(index + 1))], [], [])
            repo.commit_to_mainline(patch, green=green)
        expected = (1 + sum(greens)) / (1 + len(greens))
        assert repo.green_fraction() == expected
        assert repo.is_green() == all(greens)


#: A small path pool, so chains set, delete and re-add the same path
#: across layers; ``None`` deletes.
overlay_delta_strategy = st.dictionaries(
    st.sampled_from([f"f{i}" for i in range(6)]),
    st.one_of(st.none(), st.text(alphabet="xyz", max_size=3)),
    max_size=4,
)


class TestOverlayChains:
    @given(
        st.dictionaries(
            st.sampled_from([f"f{i}" for i in range(6)]),
            st.text(alphabet="xyz", max_size=3),
        ),
        st.lists(overlay_delta_strategy, min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_a_chain_is_the_dict_it_stands_for(self, root, deltas):
        """Every layer of a chain agrees with the plain dict built by
        applying the same deltas — on ``[]``, ``get``, ``in``, ``len``,
        iteration, ``==`` and ``to_dict()``."""
        view = root
        model = dict(root)
        order = list(root)  # a view iterates the paths its delta names last
        for delta in deltas:
            view = SnapshotOverlay(view, delta)
            for path, content in delta.items():
                if content is None:
                    model.pop(path, None)
                else:
                    model[path] = content
            order = [p for p in order if p not in delta] + [
                p for p, content in delta.items() if content is not None
            ]
            for path in [f"f{i}" for i in range(6)] + ["never"]:
                assert (path in view) == (path in model)
                assert view.get(path) == model.get(path)
                assert view.get(path, "dflt") == model.get(path, "dflt")
                if path in model:
                    assert view[path] == model[path]
                else:
                    try:
                        view[path]
                    except KeyError:
                        pass
                    else:
                        raise AssertionError(f"{path!r} should be missing")
            assert len(view) == len(model)
            assert list(view) == order and set(order) == set(model)
            assert view == model and not (view != model)
            assert view.to_dict() == model
            # A flattened copy keeps a modified path where it was.
            assert list(view.to_dict()) == list(model)
