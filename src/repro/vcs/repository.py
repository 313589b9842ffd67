"""The in-memory repository: commits, snapshots, and the mainline.

Commits store deltas over their parent, so a commit is O(size of patch),
not O(size of repo).  Snapshot lookups walk the commit chain;
:class:`Snapshot` also memoizes a flattened view once a full
materialization is requested.  The repository keeps HEAD's tree flat as
well, so a mainline commit checks its patch in O(patch) however long the
history grows.  Speculative merge states are never commits: the planner
builds them as :class:`repro.buildsys.executor.BuildContext` overlays over
the mainline base.

The repository additionally tracks mainline *health* (green/red) per
commit, which the trunk-based-development simulation (Figure 14) and the
metrics collectors consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import UnknownCommitError, UnknownFileError
from repro.types import CommitId, Path
from repro.vcs.patch import Patch

_commit_counter = itertools.count(1)


def _next_commit_id() -> CommitId:
    return f"c{next(_commit_counter):06d}"


@dataclass
class Commit:
    """One commit: a delta layer over a parent commit.

    ``delta`` maps path to post-image content, with ``None`` for deletions.
    ``green`` records whether all build steps passed for this commit point
    (the paper's definition of a green mainline requires it for *every*
    commit in the history).
    """

    commit_id: CommitId
    parent_id: Optional[CommitId]
    delta: Dict[Path, Optional[str]]
    message: str = ""
    author: str = ""
    timestamp: float = 0.0
    green: bool = True

    def __repr__(self) -> str:
        return f"Commit({self.commit_id}, parent={self.parent_id}, {len(self.delta)} paths)"


class Snapshot(Mapping[Path, str]):
    """Read-only view of the tree at one commit.

    Implements the ``Mapping`` protocol so patches and the build system can
    treat it like a plain dict.  Lookups walk the commit chain; iteration
    and ``len`` flatten lazily and memoize.
    """

    def __init__(self, repo: "Repository", commit_id: CommitId) -> None:
        self._repo = repo
        self._commit_id = commit_id
        self._flat: Optional[Dict[Path, str]] = None

    @property
    def commit_id(self) -> CommitId:
        return self._commit_id

    def __getitem__(self, path: Path) -> str:
        commit_id: Optional[CommitId] = self._commit_id
        while commit_id is not None:
            commit = self._repo.commit(commit_id)
            if path in commit.delta:
                content = commit.delta[path]
                if content is None:
                    raise KeyError(path)
                return content
            commit_id = commit.parent_id
        raise KeyError(path)

    def get(self, path: Path, default=None):
        try:
            return self[path]
        except KeyError:
            return default

    def _flatten(self) -> Dict[Path, str]:
        if self._flat is None:
            layers: List[Commit] = []
            commit_id: Optional[CommitId] = self._commit_id
            while commit_id is not None:
                commit = self._repo.commit(commit_id)
                layers.append(commit)
                commit_id = commit.parent_id
            flat: Dict[Path, str] = {}
            for commit in reversed(layers):
                for path, content in commit.delta.items():
                    if content is None:
                        flat.pop(path, None)
                    else:
                        flat[path] = content
            self._flat = flat
        return self._flat

    def __iter__(self) -> Iterator[Path]:
        return iter(self._flatten())

    def __len__(self) -> int:
        return len(self._flatten())

    def __contains__(self, path: object) -> bool:
        try:
            self[path]  # type: ignore[index]
        except (KeyError, TypeError):
            return False
        return True

    def read(self, path: Path) -> str:
        """Like ``[]`` but raises the package's error type."""
        try:
            return self[path]
        except KeyError:
            raise UnknownFileError(f"{path!r} not in snapshot {self._commit_id}") from None

    def to_dict(self) -> Dict[Path, str]:
        """A plain-dict copy of the full tree."""
        return dict(self._flatten())


class Repository:
    """An append-only commit DAG with one mainline.

    The mainline is the paper's *master*: a linear history whose HEAD only
    moves via :meth:`commit_to_mainline`, the program's one caller of
    :meth:`make_commit`.
    """

    def __init__(self, initial_files: Optional[Mapping[Path, str]] = None) -> None:
        self._commits: Dict[CommitId, Commit] = {}
        self._mainline_history: List[CommitId] = []
        root_delta: Dict[Path, Optional[str]] = dict(initial_files or {})
        root = Commit(_next_commit_id(), None, root_delta, message="initial commit")
        self._commits[root.commit_id] = root
        self._head: CommitId = root.commit_id
        self._mainline_history.append(root.commit_id)
        #: HEAD's tree, flat: a patch onto HEAD is checked against it.
        self._head_files: Dict[Path, Optional[str]] = dict(root_delta)

    # -- commits ----------------------------------------------------------

    def commit(self, commit_id: CommitId) -> Commit:
        """Look up a commit by id."""
        try:
            return self._commits[commit_id]
        except KeyError:
            raise UnknownCommitError(commit_id) from None

    def __contains__(self, commit_id: CommitId) -> bool:
        return commit_id in self._commits

    def snapshot(self, commit_id: Optional[CommitId] = None) -> Snapshot:
        """Snapshot at ``commit_id`` (default: mainline HEAD)."""
        if commit_id is None:
            commit_id = self.head()
        self.commit(commit_id)  # validate
        return Snapshot(self, commit_id)

    def make_commit(
        self,
        parent_id: CommitId,
        patch: Patch,
        message: str = "",
        author: str = "",
        timestamp: float = 0.0,
    ) -> Commit:
        """Create (but do not publish) a commit applying ``patch`` on a parent.

        Raises :class:`repro.errors.PatchConflictError` when the patch does
        not apply cleanly on the parent snapshot.
        """
        at_head = parent_id == self._head
        patch.check_applies(self._head_files if at_head else self.snapshot(parent_id))
        commit = Commit(
            _next_commit_id(),
            parent_id,
            dict(patch.delta()),
            message=message,
            author=author,
            timestamp=timestamp,
        )
        self._commits[commit.commit_id] = commit
        return commit

    # -- mainline ---------------------------------------------------------

    def head(self) -> CommitId:
        """The mainline HEAD commit id."""
        return self._head

    def mainline_history(self) -> List[CommitId]:
        """All mainline commit ids, oldest first."""
        return list(self._mainline_history)

    def mainline_length(self) -> int:
        """Number of mainline commits (root included)."""
        return len(self._mainline_history)

    def mainline_green_flags(self) -> List[bool]:
        """Per-commit health along the mainline, oldest first.

        A commit-id-free view of mainline history: journal snapshots and
        state fingerprints use it because commit ids come from a
        process-global counter and differ across replays.
        """
        return [self._commits[cid].green for cid in self._mainline_history]

    def commit_to_mainline(
        self,
        patch: Patch,
        message: str = "",
        author: str = "",
        timestamp: float = 0.0,
        green: bool = True,
    ) -> Commit:
        """Apply ``patch`` on HEAD and advance the mainline.

        ``green`` records whether the commit point passed all build steps;
        SubmitQueue always commits green, the trunk-based baseline does not.
        """
        commit = self.make_commit(
            self.head(), patch, message=message, author=author, timestamp=timestamp
        )
        commit.green = green
        self._head = commit.commit_id
        self._mainline_history.append(commit.commit_id)
        for path, content in commit.delta.items():
            if content is None:
                self._head_files.pop(path, None)
            else:
                self._head_files[path] = content
        return commit

    def mark_red(self, commit_id: CommitId) -> None:
        """Record that a mainline commit point broke the build."""
        self.commit(commit_id).green = False

    def is_green(self) -> bool:
        """True when *every* mainline commit point is green (paper section 1)."""
        return all(self._commits[cid].green for cid in self._mainline_history)

    def green_fraction(self) -> float:
        """Fraction of mainline commit points that are green."""
        history = self._mainline_history
        if not history:
            return 1.0
        green = sum(1 for cid in history if self._commits[cid].green)
        return green / len(history)

    # -- ancestry ---------------------------------------------------------

    def ancestors(self, commit_id: CommitId) -> Iterator[CommitId]:
        """Yield ``commit_id`` and then each parent up to the root."""
        current: Optional[CommitId] = commit_id
        while current is not None:
            commit = self.commit(current)
            yield current
            current = commit.parent_id
