"""In-memory version-control substrate.

This package replaces the production git monorepo from the paper with an
in-memory repository that preserves the properties SubmitQueue relies on:

* snapshots (mapping of paths to file contents) addressed by commit id,
* patches with add/modify/delete file operations,
* patch application with textual-conflict detection,
* a linear mainline with an append-only commit history, plus side
  commits for speculative merges.
"""

from repro.vcs.patch import FileOp, OpKind, Patch, three_way_conflicts
from repro.vcs.repository import Commit, Repository, Snapshot

__all__ = [
    "Commit",
    "FileOp",
    "OpKind",
    "Patch",
    "Repository",
    "Snapshot",
    "three_way_conflicts",
]
