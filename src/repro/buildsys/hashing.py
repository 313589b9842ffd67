"""Algorithm 1: deterministic target hashes over one snapshot.

A target's hash digests

* its structural declaration (label, source list, step list),
* the *content* of each of its sources (with presence/absence encoded
  distinctly from empty content), and
* the hashes of its direct dependencies — which transitively cover the
  whole dependency closure.

Consequences the rest of the system (and the property tests) rely on:
hashing is pure — same graph + files, same hashes; editing any file in a
target's transitive closure changes its hash; and touching anything
*outside* that closure never does.  Hashes are computed once per target in
dependency-first order and memoized.

Three shortcuts keep analysis cheap at scale (the section-7.1 story: a
change touching 3 files pays for its reverse-dependency closure, not the
whole repo — and co-pending changes that stack the same patches pay for
a target once between them):

* :meth:`TargetHasher.hash_of` digests only the requested target's
  dependency (ancestor) chain, never the whole graph;
* a hasher *seeded* with a prior hash map and a dirty set recomputes only
  the dirty targets' reverse-dependency closure — everything outside that
  closure reuses the seed digest verbatim (skyframe-style dirty-set
  invalidation), read through the seed map rather than copied out of it.
  :func:`dirty_targets` derives a sound dirty set from the touched paths
  plus structural diffs between two graphs, and a content-only rehash
  returns a :class:`HashOverlay` holding just the closure;
* a digest is a pure function of the target's declaration, its sources'
  contents and its dependencies' digests, so hashers that share a
  :class:`DigestMemo` share digests across graphs and snapshots: a target
  whose inputs one speculation stack already hashed costs the next stack
  a dict lookup instead of a sha256 over re-encoded sources.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target, hash_frame
from repro.types import Path, TargetName

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

    __slots__ = ("_young", "_old")

    def __init__(self) -> None:
        self._young: Dict[tuple, str] = {}
        self._old: Dict[tuple, str] = {}

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def get(self, key: tuple) -> Optional[str]:
        digest = self._young.get(key)
        if digest is None:
            digest = self._old.get(key)
            if digest is not None:
                self._young[key] = digest
        return digest

    def put(self, key: tuple, digest: str) -> None:
        self._young[key] = digest

    def rotate(self) -> None:
        """Start a new generation; entries idle for two are dropped."""
        self._old = self._young
        self._young = {}


class HashOverlay(Mapping[TargetName, str]):
    """A content-only derive's hash map: its closure's digests over a root's.

    A derive that touches no BUILD file keeps the base graph, so its key
    set is the base's and only the dirty closure's digests can move;
    holding just those makes the map O(closure) instead of a copy of the
    whole graph's.  ``root`` is always a plain dict — an overlay built
    over another one folds that one's delta into its own — so every read
    is at most two dict lookups.
    """

    __slots__ = ("root", "delta")

    def __init__(
        self, base: Mapping[TargetName, str], delta: Dict[TargetName, str]
    ) -> None:
        if isinstance(base, HashOverlay):
            delta = {**base.delta, **delta}
            base = base.root
        self.root = base
        self.delta = delta

    def __getitem__(self, name: TargetName) -> str:
        digest = self.delta.get(name)
        return self.root[name] if digest is None else digest

    def get(self, name: TargetName, default=None):
        digest = self.delta.get(name)
        return self.root.get(name, default) if digest is None else digest

    def __contains__(self, name: object) -> bool:
        return name in self.root

    def __iter__(self) -> Iterator[TargetName]:
        return iter(self.root)

    def __len__(self) -> int:
        return len(self.root)

    def __repr__(self) -> str:
        return f"HashOverlay({len(self.delta)} of {len(self.root)} digests moved)"

    def to_dict(self) -> Dict[TargetName, str]:
        """A plain-dict copy of the effective map."""
        merged = dict(self.root)
        merged.update(self.delta)
        return merged


def dirty_targets(
    base_graph: BuildGraph,
    graph: BuildGraph,
    touched_paths: Iterable[Path],
) -> Set[TargetName]:
    """Targets of ``graph`` whose seed hash (from ``base_graph``'s map) is stale.

    A target is dirty when a touched path is one of its sources, or when
    its declaration differs from ``base_graph``'s (new targets included).
    When ``graph`` *is* ``base_graph`` — what
    :func:`repro.buildsys.loader.reload_packages` returns for a
    content-only change — no declaration can differ and only the touched
    paths' owners are returned, O(touched).  Otherwise targets structurally
    shared between the graphs are identity-compared first, so the scan
    costs O(targets) pointer checks plus O(touched).

    Reverse-dependency propagation is *not* included — callers (and the
    seeded :class:`TargetHasher`) expand the closure themselves.
    """
    dirty: Set[TargetName] = set()
    for path in touched_paths:
        dirty.update(graph.targets_owning(path))
    if graph is base_graph:
        return dirty
    for target in graph:
        if target.name in dirty:
            continue
        if target.name not in base_graph:
            dirty.add(target.name)
            continue
        base_target = base_graph.target(target.name)
        if base_target is target:
            continue
        if base_target.definition() != target.definition():
            dirty.add(target.name)
    return dirty


class TargetHasher:
    """Hashes targets of one graph against one file snapshot.

    Without seeds every digest is computed on demand.  With
    ``seed_hashes``/``dirty``, digests outside the dirty set's
    reverse-dependency closure are read from the seed map (never copied
    out of it) — the caller guarantees the seeds were computed on a
    graph/snapshot pair that differs from this one only at the dirty
    targets (see :func:`dirty_targets`).

    ``computed`` counts digests resolved outside the seed map, whether
    :class:`DigestMemo` already knew them or not; ``dirty_closure`` is the
    set a seeded hasher will recompute (empty when unseeded).

    ``digest_memo`` shares digests with other hashers (see the module
    docstring); a hasher built without one uses a private empty memo.
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

    def _digest(self, target: Target) -> str:
        head, src_frames, dep_frames = target.hash_frames
        files = self._files
        memo = self._memo
        seeds = self._seeds
        contents = tuple([files.get(src) for src in target.srcs])
        # Dependencies first: a dep inside the closure is already in the
        # memo, one outside it keeps its seed digest.
        dep_digests = tuple(
            [
                memo[dep] if dep in memo else seeds.get(dep, "<unknown>")
                for dep in target.deps
            ]
        )
        self.computed += 1
        # ``head`` frames the name and the step list; with srcs and deps
        # it is the whole declaration.
        key = (head, target.srcs, target.deps, contents, dep_digests)
        digest = self._digests.get(key)
        if digest is None:
            parts = [head]
            for frame, content in zip(src_frames, contents):
                parts.append(frame)
                if content is None:
                    parts.append(_ABSENT_FRAME)
                else:
                    parts.append(hash_frame(b"content", content.encode("utf-8")))
            for frame, dep_digest in zip(dep_frames, dep_digests):
                parts.append(frame)
                parts.append(hash_frame(b"dephash", dep_digest.encode("ascii")))
            digest = hashlib.sha256(b"".join(parts)).hexdigest()
            self._digests.put(key, digest)
        return digest

    def _compute(self, names: Iterable[TargetName]) -> None:
        """Digest ``names`` (skipping memoized and seeded ones)
        dependencies-first.

        A cyclic subgraph fails with DependencyCycleError rather than
        hashing garbage.
        """
        memo, seeds, closure = self._memo, self._seeds, self.dirty_closure
        missing = [
            name
            for name in names
            if name not in memo and (name in closure or name not in seeds)
        ]
        if not missing:
            return
        for name in self._graph.induced_order(missing):
            memo[name] = self._digest(self._graph.target(name))

    def hash_of(self, name: TargetName) -> str:
        """Algorithm-1 hash of one target (raises for unknown targets).

        Digests only the target's ancestor chain (its transitive deps and
        itself), not the whole graph.
        """
        self._graph.target(name)
        if name not in self._memo and (
            name in self.dirty_closure or name not in self._seeds
        ):
            chain = self._graph.transitive_deps(name)
            chain.add(name)
            self._compute(chain)
        digest = self._memo.get(name)
        return self._seeds[name] if digest is None else digest

    def closure_hashes(self) -> Dict[TargetName, str]:
        """The dirty closure's digests — the only ones a seeded hasher
        can move — in dependencies-first order."""
        self._compute(self.dirty_closure)
        return self._memo

    def all_hashes(self) -> Dict[TargetName, str]:
        """Name-to-hash for every target in the graph.

        Unseeded, this is the hasher's own map, not a copy; seeded, the
        seeds the graph still holds outside the closure, then the
        closure."""
        if not self._seeds:
            if len(self._memo) != len(self._graph):
                self._compute(self._graph.names())
            return self._memo
        graph, closure = self._graph, self.dirty_closure
        hashes = {
            name: digest
            for name, digest in self._seeds.items()
            if name in graph and name not in closure
        }
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
    a :class:`HashOverlay` of the closure over ``base_hashes``: O(closure),
    nothing copied.  A structural change gets a plain dict.
    """
    seeds = dirty_targets(base_graph, graph, touched_paths)
    hasher = TargetHasher(
        graph, files, seed_hashes=base_hashes, dirty=seeds, digest_memo=digest_memo
    )
    if graph is base_graph:
        hashes: Mapping[TargetName, str] = HashOverlay(
            base_hashes, hasher.closure_hashes()
        )
    else:
        hashes = hasher.all_hashes()
    return hashes, hasher.dirty_closure, hasher.computed, seeds
