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

Two incremental shortcuts keep analysis cheap at scale (the section-7.1
story: a change touching 3 files pays for its reverse-dependency closure,
not the whole repo):

* :meth:`TargetHasher.hash_of` digests only the requested target's
  dependency (ancestor) chain, never the whole graph;
* a hasher *seeded* with a prior hash map and a dirty set recomputes only
  the dirty targets' reverse-dependency closure — everything outside that
  closure reuses the seed digest verbatim (skyframe-style dirty-set
  invalidation).  :func:`dirty_targets` derives a sound dirty set from the
  touched paths plus structural diffs between two graphs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target, hash_frame
from repro.types import Path, TargetName

_ABSENT_FRAME = hash_frame(b"absent", b"<missing>")


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
    reverse-dependency closure are taken from the seed map — the caller
    guarantees the seeds were computed on a graph/snapshot pair that
    differs from this one only at the dirty targets (see
    :func:`dirty_targets`).

    ``computed`` counts digests actually recomputed; ``dirty_closure`` is
    the set a seeded hasher will recompute (empty when unseeded).
    """

    def __init__(
        self,
        graph: BuildGraph,
        files: Mapping[Path, str],
        seed_hashes: Optional[Mapping[TargetName, str]] = None,
        dirty: Optional[Iterable[TargetName]] = None,
    ) -> None:
        self._graph = graph
        self._files = files
        self._memo: Dict[TargetName, str] = {}
        self.computed = 0
        self.dirty_closure: Set[TargetName] = set()
        if seed_hashes is not None:
            self.dirty_closure = graph.transitive_dependents(
                name for name in (dirty or ()) if name in graph
            )
            self._memo = {
                name: digest
                for name, digest in seed_hashes.items()
                if name in graph and name not in self.dirty_closure
            }

    def _digest(self, target: Target) -> str:
        head, src_frames, dep_frames = target.hash_frames
        files = self._files
        memo = self._memo
        parts = [head]
        for src, frame in zip(target.srcs, src_frames):
            content: Optional[str] = files.get(src)
            parts.append(frame)
            if content is None:
                parts.append(_ABSENT_FRAME)
            else:
                parts.append(hash_frame(b"content", content.encode("utf-8")))
        for dep, frame in zip(target.deps, dep_frames):
            parts.append(frame)
            parts.append(
                hash_frame(b"dephash", memo.get(dep, "<unknown>").encode("ascii"))
            )
        self.computed += 1
        return hashlib.sha256(b"".join(parts)).hexdigest()

    def _compute(self, names: Iterable[TargetName]) -> None:
        """Digest ``names`` (skipping memoized ones) dependencies-first.

        A cyclic subgraph fails with DependencyCycleError rather than
        hashing garbage.
        """
        missing = [name for name in names if name not in self._memo]
        if not missing:
            return
        for name in self._graph.induced_order(missing):
            self._memo[name] = self._digest(self._graph.target(name))

    def hash_of(self, name: TargetName) -> str:
        """Algorithm-1 hash of one target (raises for unknown targets).

        Digests only the target's ancestor chain (its transitive deps and
        itself), not the whole graph.
        """
        self._graph.target(name)
        if name not in self._memo:
            chain = self._graph.transitive_deps(name)
            chain.add(name)
            self._compute(chain)
        return self._memo[name]

    def all_hashes(self) -> Dict[TargetName, str]:
        """Name-to-hash for every target in the graph."""
        if len(self._memo) != len(self._graph):
            self._compute(self._graph.names())
        return dict(self._memo)


def incremental_hashes(
    base_graph: BuildGraph,
    base_hashes: Mapping[TargetName, str],
    graph: BuildGraph,
    files: Mapping[Path, str],
    touched_paths: Iterable[Path],
) -> Tuple[Dict[TargetName, str], Set[TargetName], int]:
    """Rehash ``graph`` reusing ``base_hashes`` where provably unchanged.

    Returns ``(hashes, dirty_closure, computed)``: the full hash map, the
    set of targets that had to be rehashed (dirty seeds plus their
    reverse-dependency closure), and how many digests were computed.
    """
    seeds = dirty_targets(base_graph, graph, touched_paths)
    hasher = TargetHasher(graph, files, seed_hashes=base_hashes, dirty=seeds)
    hashes = hasher.all_hashes()
    return hashes, hasher.dirty_closure, hasher.computed
