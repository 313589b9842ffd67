"""Unit tests for repro.vcs.repository."""

import pytest

from repro.errors import PatchConflictError, UnknownCommitError, UnknownFileError
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository


@pytest.fixture
def repo():
    return Repository({"a.py": "a0", "b.py": "b0"})


class TestBasics:
    def test_initial_snapshot(self, repo):
        snapshot = repo.snapshot()
        assert snapshot["a.py"] == "a0"
        assert len(snapshot) == 2

    def test_unknown_commit_raises(self, repo):
        with pytest.raises(UnknownCommitError):
            repo.commit("nope")

    def test_contains(self, repo):
        assert repo.head() in repo
        assert "nope" not in repo

    def test_empty_repo(self):
        repo = Repository()
        assert len(repo.snapshot()) == 0
        assert repo.is_green()


class TestCommits:
    def test_commit_to_mainline_advances_head(self, repo):
        old_head = repo.head()
        commit = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        assert repo.head() == commit.commit_id
        assert commit.parent_id == old_head
        assert repo.snapshot()["a.py"] == "a1"

    def test_history_is_ordered(self, repo):
        first = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        second = repo.commit_to_mainline(Patch.modifying({"a.py": "a2"}))
        history = repo.mainline_history()
        assert history[-2:] == [first.commit_id, second.commit_id]

    def test_make_commit_does_not_move_head(self, repo):
        head = repo.head()
        side = repo.make_commit(head, Patch.modifying({"a.py": "side"}))
        assert repo.head() == head
        assert repo.snapshot(side.commit_id)["a.py"] == "side"
        assert repo.snapshot()["a.py"] == "a0"

    def test_conflicting_patch_rejected(self, repo):
        patch = Patch.modifying({"missing.py": "x"})
        with pytest.raises(PatchConflictError):
            repo.commit_to_mainline(patch)

    def test_deletion_layers(self, repo):
        repo.commit_to_mainline(Patch.deleting(["b.py"]))
        snapshot = repo.snapshot()
        assert "b.py" not in snapshot
        with pytest.raises(KeyError):
            snapshot["b.py"]
        with pytest.raises(UnknownFileError):
            snapshot.read("b.py")

    def test_layered_lookup_walks_chain(self, repo):
        for i in range(5):
            repo.commit_to_mainline(Patch.modifying({"a.py": f"a{i + 1}"}))
        # b.py was never touched; the lookup must walk back to the root.
        assert repo.snapshot()["b.py"] == "b0"
        assert repo.snapshot()["a.py"] == "a5"

    def test_snapshot_to_dict_flattens(self, repo):
        repo.commit_to_mainline(Patch.adding({"c.py": "c0"}))
        assert repo.snapshot().to_dict() == {
            "a.py": "a0",
            "b.py": "b0",
            "c.py": "c0",
        }


class TestMainlineCommitCost:
    def test_lookups_per_commit_do_not_grow_with_history(self, monkeypatch):
        """Each commit adds a path the tree lacks, so checking it against a
        chain-walking snapshot would visit every commit back to the root:
        the 2,000th commit would cost 2,000 lookups, the first one."""
        repo = Repository({"seed.py": "s0"})
        lookups = [0]
        commit = Repository.commit

        def counting(self, commit_id):
            lookups[0] += 1
            return commit(self, commit_id)

        monkeypatch.setattr(Repository, "commit", counting)
        per_commit = []
        for index in range(2000):
            before = lookups[0]
            repo.commit_to_mainline(Patch.adding({f"f{index}.py": f"v{index}"}))
            per_commit.append(lookups[0] - before)
        assert sum(per_commit[-100:]) == sum(per_commit[:100])

        # The flat head view follows deletes and re-adds.
        repo.commit_to_mainline(Patch.deleting(["f7.py"]))
        with pytest.raises(PatchConflictError):
            repo.commit_to_mainline(Patch.deleting(["f7.py"]))
        repo.commit_to_mainline(Patch.adding({"f7.py": "again"}))
        assert repo.snapshot()["f7.py"] == "again"
        assert len(repo.snapshot()) == 2001


class TestGreenness:
    def test_green_by_default(self, repo):
        repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        assert repo.is_green()
        assert repo.green_fraction() == 1.0

    def test_red_commit_breaks_greenness(self, repo):
        commit = repo.commit_to_mainline(
            Patch.modifying({"a.py": "broken"}), green=False
        )
        assert not repo.is_green()
        assert repo.green_fraction() == 0.5
        assert not repo.commit(commit.commit_id).green

    def test_mark_red(self, repo):
        commit = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        repo.mark_red(commit.commit_id)
        assert not repo.is_green()


class TestAncestry:
    def test_ancestors_walks_to_root(self, repo):
        root = repo.head()
        first = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        chain = list(repo.ancestors(first.commit_id))
        assert chain == [first.commit_id, root]
