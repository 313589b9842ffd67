"""Patches: the unit of code modification carried by a change.

A :class:`Patch` is an ordered collection of file operations.  It knows how
to apply itself to a snapshot (a ``dict`` of path to content) and how to
detect the textual conflicts that a git-style merge would report.

The model is file-granular: two patches textually conflict when they touch
the same path in incompatible ways.  This matches the granularity at which
the paper's conflict analyzer reasons (build targets own whole source
files), while staying cheap enough for large simulations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import PatchConflictError
from repro.types import Path


class SnapshotOverlay(Mapping[Path, str]):
    """A copy-on-write view: a patch's delta layered over a base snapshot.

    Applying a patch to a million-file monorepo snapshot must not copy the
    whole file dict (section 7.1's scalability requirement); the overlay
    stores only the delta and delegates everything else to the base.  It
    serves both maps a derived build context holds: its files, and — when
    the derive kept the base graph — its target digests, the dirty
    closure's over the base's hash dict.

    Every root the program derives from is a plain dict — a loaded
    context's snapshot and hash map, or a new mainline base that
    :meth:`repro.buildsys.executor.BuildContext.as_root` flattened with
    :meth:`to_dict` — so a view is one layer over a dict.  A view over
    another view (the conflict analyzer's pair merge) reads through it.

    The view keeps the ``delta`` it is handed, uncopied: the caller gives
    up a dict it will not touch again (a fresh :meth:`Patch.delta`, a
    stacked derive's local delta, a hasher's closure memo).  The view is
    immutable.  Iteration and ``len`` memoize the effective key set on
    first use; equality compares item-by-item against any mapping so
    overlays remain interchangeable with the dicts they replaced.
    """

    __slots__ = ("_base", "_delta", "_keys")

    def __init__(self, base: Mapping[Path, str],
                 delta: Mapping[Path, Optional[str]]) -> None:
        self._base = base
        self._delta = delta
        self._keys: Optional[List[Path]] = None

    def __getitem__(self, path: Path) -> str:
        delta = self._delta
        if path in delta:
            content = delta[path]
            if content is None:
                raise KeyError(path)
            return content
        return self._base[path]

    def get(self, path: Path, default=None):
        delta = self._delta
        if path in delta:
            content = delta[path]
            return default if content is None else content
        return self._base.get(path, default)

    def layered(self) -> Tuple[Mapping[Path, Optional[str]], Mapping[Path, str]]:
        """``(delta, base)`` for a reader of many paths: a path ``delta``
        names reads from it (``None`` marks a deletion); any other reads
        from ``base``.  Both are shared, read-only like the view."""
        return self._delta, self._base

    def _effective_keys(self) -> List[Path]:
        if self._keys is None:
            keys = [p for p in self._base if p not in self._delta]
            keys.extend(p for p, content in self._delta.items()
                        if content is not None)
            self._keys = keys
        return self._keys

    def __iter__(self) -> Iterator[Path]:
        return iter(self._effective_keys())

    def __len__(self) -> int:
        return len(self._effective_keys())

    def __contains__(self, path: object) -> bool:
        delta = self._delta
        if path in delta:
            return delta[path] is not None  # type: ignore[index]
        return path in self._base

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(other.get(path) == self[path] for path in self)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"SnapshotOverlay({len(self._delta)} delta paths over {type(self._base).__name__})"

    def to_dict(self) -> Dict[Path, str]:
        """A plain-dict copy of the effective snapshot: a C-level copy of
        the base with the delta applied, O(delta) Python work.  A modified
        path keeps its place in the base's order; an added one comes
        last."""
        base = self._base
        flat = base.to_dict() if isinstance(base, SnapshotOverlay) else dict(base)
        delta = self._delta
        flat.update(delta)
        for path, content in delta.items():
            if content is None:
                del flat[path]
        return flat


class OpKind(enum.Enum):
    """Kind of file operation inside a patch."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class FileOp:
    """One file operation.

    ``base_content`` records what the author saw when editing (the content
    at the patch's base commit); it powers three-way conflict detection.
    ``content`` is the full post-image for ADD/MODIFY and ``None`` for
    DELETE.
    """

    kind: OpKind
    path: Path
    content: Optional[str] = None
    base_content: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.DELETE:
            if self.content is not None:
                raise ValueError(f"DELETE of {self.path!r} must not carry content")
        elif self.content is None:
            raise ValueError(f"{self.kind.value} of {self.path!r} requires content")


class Patch:
    """An ordered set of file operations, at most one per path."""

    def __init__(self, ops: Iterable[FileOp] = ()) -> None:
        self._ops: Dict[Path, FileOp] = {}
        for op in ops:
            self.add_op(op)

    # -- construction -----------------------------------------------------

    def add_op(self, op: FileOp) -> None:
        """Add an operation; replacing an existing op for a path is an error."""
        if op.path in self._ops:
            raise ValueError(f"duplicate op for path {op.path!r}")
        self._ops[op.path] = op

    @classmethod
    def adding(cls, files: Mapping[Path, str]) -> "Patch":
        """Convenience constructor: a patch that adds ``files``."""
        return cls(FileOp(OpKind.ADD, path, content) for path, content in files.items())

    @classmethod
    def modifying(cls, files: Mapping[Path, str],
                  base: Optional[Mapping[Path, str]] = None) -> "Patch":
        """Convenience constructor: a patch that rewrites ``files``."""
        base = base or {}
        return cls(
            FileOp(OpKind.MODIFY, path, content, base_content=base.get(path))
            for path, content in files.items()
        )

    @classmethod
    def deleting(cls, paths: Iterable[Path]) -> "Patch":
        """Convenience constructor: a patch that deletes ``paths``."""
        return cls(FileOp(OpKind.DELETE, path) for path in paths)

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[FileOp]:
        return iter(self._ops.values())

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __repr__(self) -> str:
        return f"Patch({len(self._ops)} ops on {sorted(self._ops)[:4]}...)"

    @property
    def paths(self) -> Set[Path]:
        """All paths touched by this patch."""
        return set(self._ops)

    def op_for(self, path: Path) -> Optional[FileOp]:
        """The operation for ``path``, or ``None``."""
        return self._ops.get(path)

    def touched_lines(self) -> int:
        """Total number of post-image lines, a cheap size proxy for features."""
        return sum(
            op.content.count("\n") + 1
            for op in self._ops.values()
            if op.content is not None
        )

    # -- application ------------------------------------------------------

    def check_applies(self, snapshot: Mapping[Path, str]) -> None:
        """Raise :class:`PatchConflictError` if this patch cannot apply.

        Rules (mirroring git's behaviour at file granularity):

        * ADD conflicts when the path already exists with different content.
        * MODIFY/DELETE conflict when the path does not exist.
        * MODIFY conflicts when the file diverged from the recorded base
          content (somebody else rewrote it differently in the meantime).
        """
        for op in self._ops.values():
            current = snapshot.get(op.path)
            if op.kind is OpKind.ADD:
                if current is not None and current != op.content:
                    raise PatchConflictError(op.path, "add of existing path")
            elif current is None:
                raise PatchConflictError(op.path, f"{op.kind.value} of missing path")
            elif (
                op.kind is OpKind.MODIFY
                and op.base_content is not None
                and current != op.base_content
                and current != op.content
            ):
                raise PatchConflictError(op.path, "base content diverged")

    def apply(self, snapshot: Mapping[Path, str]) -> SnapshotOverlay:
        """Return a new snapshot view with this patch applied.

        The result is a :class:`SnapshotOverlay` sharing ``snapshot``'s
        storage — O(patch size), not O(repo size).  Raises
        :class:`PatchConflictError` when :meth:`check_applies` would.
        """
        self.check_applies(snapshot)
        return SnapshotOverlay(snapshot, self.delta())

    def delta(self) -> Dict[Path, Optional[str]]:
        """Mapping of path to post-image (``None`` means deleted)."""
        return {op.path: op.content for op in self._ops.values()}


def three_way_conflicts(first: Patch, second: Patch) -> List[Tuple[Path, str]]:
    """Paths where two patches textually conflict, with reasons.

    Two patches conflict on a path when both touch it and their post-images
    differ (identical edits merge cleanly, like git's trivial merge).
    """
    conflicts: List[Tuple[Path, str]] = []
    for path in sorted(first.paths & second.paths):
        op_a = first.op_for(path)
        op_b = second.op_for(path)
        assert op_a is not None and op_b is not None
        if op_a.kind is OpKind.DELETE and op_b.kind is OpKind.DELETE:
            continue
        if op_a.content == op_b.content:
            continue
        conflicts.append((path, f"{op_a.kind.value} vs {op_b.kind.value}"))
    return conflicts
