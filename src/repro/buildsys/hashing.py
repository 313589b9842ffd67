"""Algorithm 1: deterministic target hashes over one snapshot.

A target's hash digests

* its structural declaration (label, source list, step list),
* the *content* of each of its sources (with presence/absence encoded
  distinctly from empty content), and
* the hashes of its direct dependencies — which transitively cover the
  whole dependency closure.

Hashing is pure — same graph + files, same hashes; editing any file in
a target's transitive closure changes its hash, touching anything outside
it never does.  Digests are computed once per target, dependencies first
(in the graph's depth order), and memoized.  Two shortcuts keep
analysis cheap at scale (section 7.1: a change pays for its
reverse-dependency closure, not the repo):

* a hasher *seeded* with a prior hash map and a dirty set
  (:func:`dirty_targets`) recomputes only the dirty set's
  reverse-dependency closure and reads every other digest through the
  seed map (skyframe-style invalidation); a content-only rehash returns a
  :class:`~repro.vcs.patch.SnapshotOverlay` holding just the closure;
* hashers that share a :class:`DigestMemo` share digests across graphs
  and snapshots: a target whose inputs one speculation stack already
  hashed costs the next a dict lookup instead of a sha256.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import hash_frame
from repro.types import Path, TargetName
from repro.vcs.patch import SnapshotOverlay

_ABSENT_FRAME = hash_frame(b"absent", b"<missing>")


class DigestMemo:
    """Target digests keyed by everything a digest is a function of.

    The key is the target's declaration (its name-and-steps head frame,
    its ``srcs`` and its ``deps``), each source's content — ``None`` for
    an absent file, which is not the empty string — and each dependency's
    digest; the value is the Algorithm-1 hex digest those inputs produce.
    Nothing about a graph, a snapshot or a base commit is in the key, so
    one memo serves every :class:`TargetHasher` of a service.

    Bounded by generations instead of a capacity: :meth:`rotate` (called
    when the mainline base advances) retires the young generation to old
    and drops the previous old one, and a hit in the old generation is
    promoted.  An entry therefore survives while it is used at least once
    per base generation and is gone two rotations after its last use —
    without the bound the keys, which hold source texts, would pin every
    rejected or superseded patch's content for the life of the service.
    """

    __slots__ = ("young", "old")

    def __init__(self) -> None:
        #: The two generations, read and filled by
        #: :meth:`TargetHasher._compute`'s loop: a digest found in ``old``
        #: or computed afresh is stored in ``young``.
        self.young: Dict[tuple, str] = {}
        self.old: Dict[tuple, str] = {}

    def __len__(self) -> int:
        return len(self.young) + len(self.old)

    def rotate(self) -> None:
        """Start a new generation; entries idle for two are dropped."""
        self.old = self.young
        self.young = {}


def dirty_targets(
    base_graph: BuildGraph,
    graph: BuildGraph,
    touched_paths: Iterable[Path],
) -> Set[TargetName]:
    """Targets of ``graph`` whose seed hash (from ``base_graph``'s map) is stale.

    A target is dirty when a touched path is one of its sources, or when
    its declaration differs from ``base_graph``'s (new targets included):
    :meth:`BuildGraph.changes_since`, which is O(1) for the graph itself
    (a content-only change) or a graph spliced from it.  Reverse-dependency
    propagation is *not* included — callers (and the seeded
    :class:`TargetHasher`) expand the closure themselves.
    """
    dirty: Set[TargetName] = set()
    for path in touched_paths:
        dirty.update(graph.targets_owning(path))
    dirty.update(graph.changes_since(base_graph)[0])
    return dirty


class TargetHasher:
    """Hashes targets of one graph against one file snapshot.

    Without seeds every digest is computed on demand.  With
    ``seed_hashes``/``dirty``, digests outside the dirty set's
    reverse-dependency closure are read from the seed map — the caller
    guarantees the seeds were computed on a graph/snapshot pair that
    differs from this one only at the dirty targets.  ``computed`` counts
    digests resolved outside the seed map, memo hit or not;
    ``dirty_closure`` is the set a seeded hasher recomputes (empty when
    unseeded); ``digest_memo`` defaults to a private empty memo.
    """

    def __init__(
        self,
        graph: BuildGraph,
        files: Mapping[Path, str],
        seed_hashes: Optional[Mapping[TargetName, str]] = None,
        dirty: Optional[Iterable[TargetName]] = None,
        digest_memo: Optional[DigestMemo] = None,
    ) -> None:
        self._graph = graph
        self._files = files
        self._digests = digest_memo if digest_memo is not None else DigestMemo()
        #: Digests this hasher resolved itself — for a seeded one, only
        #: members of the dirty closure.
        self._memo: Dict[TargetName, str] = {}
        self._seeds: Mapping[TargetName, str] = (
            seed_hashes if seed_hashes is not None else {}
        )
        self.computed = 0
        self.dirty_closure: Set[TargetName] = set()
        if seed_hashes is not None:
            self.dirty_closure = graph.transitive_dependents(
                name for name in (dirty or ()) if name in graph
            )

    def _compute(self, names: Iterable[TargetName]) -> None:
        """Digest ``names`` (skipping memoized and seeded ones)
        dependencies-first: in the order of the graph's depth index, one
        loop with no call per target.

        A cyclic graph fails with DependencyCycleError rather than
        hashing garbage.
        """
        memo, seeds, closure = self._memo, self._seeds, self.dirty_closure
        graph = self._graph
        depth = graph.depth_index()
        missing = [
            name
            for name in names
            if name not in memo
            and name in depth
            and (name in closure or name not in seeds)
        ]
        if not missing:
            return
        missing.sort(key=depth.__getitem__)
        targets, files = graph.by_name, self._files
        # An overlay is read as its delta and its base, so a target whose
        # sources the delta does not name reads them from the base in one
        # C-level ``map``.
        layered: Mapping[Path, Optional[str]] = {}
        if isinstance(files, SnapshotOverlay):
            layered, files = files.layered()
        # One generation pair for the whole walk: nothing rotates the memo
        # in between.
        young, old = self._digests.young, self._digests.old
        for name in missing:
            target = targets[name]
            head, src_frames, dep_frames = target.hash_frames
            srcs, deps = target.srcs, target.deps
            if layered.keys().isdisjoint(srcs):
                contents = tuple(map(files.get, srcs))
            else:
                contents = tuple(
                    layered[src] if src in layered else files.get(src)
                    for src in srcs
                )
            # Dependencies first: a dep inside the closure is already in
            # the memo, one outside it keeps its seed digest.
            dep_digests = []
            for dep in deps:
                dep_digests.append(
                    memo[dep] if dep in memo else seeds.get(dep, "<unknown>")
                )
            # ``head`` frames the name and the step list; with srcs and
            # deps it is the whole declaration.
            key = (head, srcs, deps, contents, tuple(dep_digests))
            digest = young.get(key)
            if digest is None:
                digest = old.get(key)
                if digest is None:
                    parts = [head]
                    for frame, content in zip(src_frames, contents):
                        parts.append(frame)
                        if content is None:
                            parts.append(_ABSENT_FRAME)
                        else:
                            parts.append(
                                hash_frame(b"content", content.encode("utf-8"))
                            )
                    for frame, dep_digest in zip(dep_frames, dep_digests):
                        parts.append(frame)
                        parts.append(
                            hash_frame(b"dephash", dep_digest.encode("ascii"))
                        )
                    digest = hashlib.sha256(b"".join(parts)).hexdigest()
                young[key] = digest
            memo[name] = digest
        self.computed += len(missing)

    def closure_hashes(self) -> Dict[TargetName, str]:
        """The dirty closure's digests — the only ones a seeded hasher
        can move — in dependencies-first order."""
        self._compute(self.dirty_closure)
        return self._memo

    def all_hashes(self) -> Dict[TargetName, str]:
        """Name-to-hash for every target in the graph.

        Unseeded, this is the hasher's own map, not a copy; seeded, a copy
        of the seeds (made in C, not a pass over the targets) less the
        names the graph lost, updated with the closure."""
        seeds = self._seeds
        if not seeds:
            if len(self._memo) != len(self._graph):
                self._compute(self._graph.by_name)
            return self._memo
        hashes = seeds.to_dict() if isinstance(seeds, SnapshotOverlay) else dict(seeds)
        for name in hashes.keys() - self._graph.by_name.keys():
            del hashes[name]
        hashes.update(self.closure_hashes())
        return hashes


def incremental_hashes(
    base_graph: BuildGraph,
    base_hashes: Mapping[TargetName, str],
    graph: BuildGraph,
    files: Mapping[Path, str],
    touched_paths: Iterable[Path],
    digest_memo: Optional[DigestMemo] = None,
) -> Tuple[Mapping[TargetName, str], Set[TargetName], int, Set[TargetName]]:
    """Rehash ``graph`` reusing ``base_hashes`` where provably unchanged.

    Returns ``(hashes, dirty_closure, computed, seeds)``: the full hash
    map, the set of targets that had to be rehashed (dirty seeds plus
    their reverse-dependency closure), how many digests were computed,
    and the seeds themselves (:func:`dirty_targets`).

    When ``graph`` *is* ``base_graph`` (a content-only change) the map is
    a :class:`~repro.vcs.patch.SnapshotOverlay` of the closure over
    ``base_hashes``: O(closure), the base map not copied.  A structural
    change gets a plain dict.
    """
    seeds = dirty_targets(base_graph, graph, touched_paths)
    hasher = TargetHasher(
        graph, files, seed_hashes=base_hashes, dirty=seeds, digest_memo=digest_memo
    )
    if graph is base_graph:
        hashes: Mapping[TargetName, str] = SnapshotOverlay(
            base_hashes, hasher.closure_hashes()
        )
    else:
        hashes = hasher.all_hashes()
    return hashes, hasher.dirty_closure, hasher.computed, seeds
