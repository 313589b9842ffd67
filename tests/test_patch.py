"""Unit tests for repro.vcs.patch."""

import pytest

from repro.errors import PatchConflictError
from repro.vcs.patch import FileOp, OpKind, Patch, three_way_conflicts


class TestFileOp:
    def test_add_requires_content(self):
        with pytest.raises(ValueError):
            FileOp(OpKind.ADD, "a.py")

    def test_modify_requires_content(self):
        with pytest.raises(ValueError):
            FileOp(OpKind.MODIFY, "a.py")

    def test_delete_rejects_content(self):
        with pytest.raises(ValueError):
            FileOp(OpKind.DELETE, "a.py", content="x")

    def test_delete_without_content_ok(self):
        op = FileOp(OpKind.DELETE, "a.py")
        assert op.content is None


class TestPatchConstruction:
    def test_duplicate_path_rejected(self):
        patch = Patch([FileOp(OpKind.ADD, "a.py", "x")])
        with pytest.raises(ValueError, match="duplicate"):
            patch.add_op(FileOp(OpKind.MODIFY, "a.py", "y"))

    def test_adding_constructor(self):
        patch = Patch.adding({"a.py": "1", "b.py": "2"})
        assert patch.paths == {"a.py", "b.py"}
        assert all(op.kind is OpKind.ADD for op in patch)

    def test_deleting_constructor(self):
        patch = Patch.deleting(["a.py"])
        assert patch.op_for("a.py").kind is OpKind.DELETE

    def test_modifying_records_base(self):
        patch = Patch.modifying({"a.py": "new"}, base={"a.py": "old"})
        assert patch.op_for("a.py").base_content == "old"

    def test_len_bool_iter(self):
        assert not Patch()
        patch = Patch.adding({"a.py": "1"})
        assert len(patch) == 1
        assert bool(patch)
        assert [op.path for op in patch] == ["a.py"]

    def test_touched_lines(self):
        patch = Patch.adding({"a.py": "1\n2\n3", "b.py": "x"})
        assert patch.touched_lines() == 4


class TestPatchApply:
    def test_add_and_modify_and_delete(self):
        snapshot = {"keep.py": "k", "mod.py": "old", "gone.py": "g"}
        patch = Patch(
            [
                FileOp(OpKind.ADD, "new.py", "n"),
                FileOp(OpKind.MODIFY, "mod.py", "new"),
                FileOp(OpKind.DELETE, "gone.py"),
            ]
        )
        result = patch.apply(snapshot)
        assert result == {"keep.py": "k", "mod.py": "new", "new.py": "n"}
        # Original snapshot untouched.
        assert snapshot["mod.py"] == "old"

    def test_add_existing_same_content_is_noop(self):
        patch = Patch.adding({"a.py": "same"})
        assert patch.apply({"a.py": "same"}) == {"a.py": "same"}

    def test_add_existing_different_content_conflicts(self):
        patch = Patch.adding({"a.py": "mine"})
        with pytest.raises(PatchConflictError):
            patch.apply({"a.py": "theirs"})

    def test_modify_missing_conflicts(self):
        patch = Patch.modifying({"a.py": "new"})
        with pytest.raises(PatchConflictError):
            patch.apply({})

    def test_delete_missing_conflicts(self):
        patch = Patch.deleting(["a.py"])
        with pytest.raises(PatchConflictError):
            patch.apply({})

    def test_modify_with_diverged_base_conflicts(self):
        patch = Patch.modifying({"a.py": "new"}, base={"a.py": "old"})
        with pytest.raises(PatchConflictError, match="diverged"):
            patch.apply({"a.py": "someone-elses-edit"})

    def test_modify_converged_content_ok(self):
        # Someone already applied the same edit: clean merge.
        patch = Patch.modifying({"a.py": "new"}, base={"a.py": "old"})
        assert patch.apply({"a.py": "new"}) == {"a.py": "new"}

    def test_conflict_error_carries_path(self):
        patch = Patch.deleting(["a.py"])
        with pytest.raises(PatchConflictError) as excinfo:
            patch.apply({})
        assert excinfo.value.path == "a.py"


class TestThreeWayConflicts:
    def test_disjoint_paths_do_not_conflict(self):
        a = Patch.adding({"a.py": "1"})
        b = Patch.adding({"b.py": "2"})
        assert three_way_conflicts(a, b) == []

    def test_same_edit_merges_cleanly(self):
        a = Patch.modifying({"x.py": "same"})
        b = Patch.modifying({"x.py": "same"})
        assert three_way_conflicts(a, b) == []

    def test_different_edits_conflict(self):
        a = Patch.modifying({"x.py": "a"})
        b = Patch.modifying({"x.py": "b"})
        conflicts = three_way_conflicts(a, b)
        assert [path for path, _ in conflicts] == ["x.py"]

    def test_double_delete_is_clean(self):
        a = Patch.deleting(["x.py"])
        b = Patch.deleting(["x.py"])
        assert three_way_conflicts(a, b) == []

    def test_modify_vs_delete_conflicts(self):
        a = Patch.modifying({"x.py": "a"})
        b = Patch.deleting(["x.py"])
        assert three_way_conflicts(a, b)
