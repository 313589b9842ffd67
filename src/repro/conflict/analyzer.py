"""The conflict analyzer (paper section 5.2), incremental end-to-end.

Given a base :class:`~repro.buildsys.executor.BuildContext` (the mainline
HEAD's snapshot, graph and target hashes) and pending changes with
patches, decides pairwise *potential* conflicts:

* **fast path** — when neither change alters build-graph *structure*
  (only ~7.9 % of iOS / 1.6 % of backend changes do), intersecting the
  affected-target name sets is exact;
* **slow path** — otherwise, run the union-graph algorithm's Steps 2–4
  over the two changes' dependent cones only
  (:func:`~repro.conflict.union_graph.cone_conflict`): it needs the
  per-change build graphs, not per-pair ones, and visits no target
  neither change can reach;
* an **exact mode** implementing Equation 6 directly (builds the combined
  graph ``G_{H⊕Ci⊕Cj}``) is kept for cross-validation in tests.

Per-change analysis is one
:meth:`~repro.buildsys.executor.BuildContext.derive_stack` of the change's
patch over the base — the derivation every build uses: a copy-on-write
overlay, BUILD files re-parsed only for touched packages, and hashing
that reuses the base hash map for everything outside the touched targets'
reverse-dependency closure.  Nothing here loads a graph or hashes a
target itself.

The analyzer also *carries over* across mainline advances instead of being
rebuilt.  An analysis holds only what does not depend on the base — the
change's touched paths, its tainted target *names* and whether it alters
structure — so :meth:`ConflictAnalyzer.advance_base` adopts the head's
already advanced context (the build controller's, in a service) and keeps
every analysis whose names provably cannot have moved (see the method for
the rules and the proof).  Digests are derived only when asked for
(:meth:`ConflictAnalyzer.affected_targets`).  :meth:`ConflictAnalyzer.forget`
evicts committed/aborted changes so the per-change cache cannot grow
unboundedly.

A new change is compared only with the pending changes it can interact
with: :meth:`ConflictAnalyzer.conflict_candidates` answers that from an
inverted index over the cached analyses (tainted target name → change
ids, touched path → change ids, plus the structural ids), kept in step
with the per-change cache at every point it is written or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.buildsys.delta import delta_from_dirty, delta_names, equation6_conflict
from repro.buildsys.executor import BuildContext
from repro.buildsys.graph import BuildGraph
from repro.changes.change import Change
from repro.conflict.union_graph import cone_conflict
from repro.errors import BuildSystemError, PatchConflictError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import metric_field
from repro.types import AffectedTarget, ChangeId, Path, TargetName
from repro.vcs.patch import Patch, three_way_conflicts

_PAIR_CHECKS_HELP = "Pairwise conflict checks by resolution path."


@dataclass
class ConflictAnalyzerStats:
    """Counters for fast/slow path usage and incremental effectiveness.

    The first four feed the section-5.2 benches; the incremental group
    records how much work dirty-set hashing and carry-over actually saved
    (``targets_rehashed`` out of ``targets_total`` per analysis — analyses
    only: the head advance's own rehash is whoever advanced the base
    context's, the build controller's in a service — and cached analyses
    ``analyses_revalidated`` vs ``analyses_recomputed`` across head
    advances).  A head advance drops an analysis only when it is
    structural, when the commit overlaps its paths, or when the commit
    changes structure beyond adding targets (or adds one that reads the
    change's taint or paths); ``analyses_recomputed`` counts when such a
    dropped analysis is actually computed again, on the next ``analyze()``
    of that change, so the revalidated/recomputed ratio reflects work
    performed, not work predicted.

    Every field is exposed on the analyzer's recorder, so conflict series
    appear in the run's Prometheus/JSON dumps.
    """

    fast_path: int = metric_field(
        "conflict_pair_checks_total", _PAIR_CHECKS_HELP, {"path": "fast"}
    )
    slow_path: int = metric_field(
        "conflict_pair_checks_total", _PAIR_CHECKS_HELP, {"path": "slow"}
    )
    textual: int = metric_field(
        "conflict_pair_checks_total", _PAIR_CHECKS_HELP, {"path": "textual"}
    )
    skipped: int = metric_field(
        "conflict_pair_checks_skipped_total",
        "Pending pairs the candidate index ruled out unchecked.",
    )
    analyses: int = metric_field(
        "conflict_analyses_total", "Full per-change analyses computed."
    )
    targets_rehashed: int = metric_field(
        "conflict_targets_rehashed_total",
        "Target hashes recomputed: each analysis's dirty closure.",
    )
    targets_total: int = metric_field(
        "conflict_targets_considered_total",
        "Target hashes needed across all analyses.",
    )
    head_advances: int = metric_field(
        "conflict_head_advances_total",
        "Mainline advances applied to the analyzer base.",
    )
    analyses_revalidated: int = metric_field(
        "conflict_analyses_revalidated_total",
        "Cached analyses carried over a head advance.",
    )
    analyses_recomputed: int = metric_field(
        "conflict_analyses_recomputed_total",
        "Invalidated analyses recomputed on next use.",
    )

    @property
    def checks(self) -> int:
        return self.fast_path + self.slow_path + self.textual

    @property
    def fast_path_rate(self) -> float:
        return self.fast_path / self.checks if self.checks else 0.0

    @property
    def rehash_fraction(self) -> float:
        """Fraction of target hashes recomputed rather than reused."""
        return (
            self.targets_rehashed / self.targets_total
            if self.targets_total
            else 0.0
        )

    @property
    def revalidation_rate(self) -> float:
        total = self.analyses_revalidated + self.analyses_recomputed
        return self.analyses_revalidated / total if total else 0.0


@dataclass
class _ChangeAnalysis:
    """What a verdict reads of one change: facts that do not depend on the base.

    No digest is kept — digests move with the base, names do not — which
    is what lets :meth:`ConflictAnalyzer.advance_base` keep a survivor
    as it is.
    """

    patch: Patch
    touched: FrozenSet[Path]
    #: Names whose hash differs from the base's, a missing target hashing
    #: as ``None``: the delta's names (changed or added) plus the targets
    #: the change removed.  Step 2's direct taint, and — no target being
    #: removed without a structure change — the fast path's comparand.
    taint: FrozenSet[TargetName]
    structure_changed: bool
    #: The change's own graph when its patch reloaded BUILD files;
    #: ``None`` for a content-only change, which reads the current base's.
    graph: Optional[BuildGraph] = None


class ConflictAnalyzer:
    """Build-target-hash based pairwise conflict detection."""

    def __init__(self, base: BuildContext, recorder: Recorder = NULL_RECORDER) -> None:
        self._base = base
        self._per_change: Dict[ChangeId, _ChangeAnalysis] = {}
        #: The candidate index over ``_per_change``: which cached
        #: non-structural analyses taint a target name or touch a path,
        #: and which cached analyses are structural.
        self._by_taint: Dict[TargetName, Set[ChangeId]] = {}
        self._by_path: Dict[Path, Set[ChangeId]] = {}
        self._structural: Set[ChangeId] = set()
        #: Change ids whose cached analysis a head advance invalidated;
        #: their recompute is counted when analyze() actually redoes it.
        self._invalidated: Set[ChangeId] = set()
        self.stats = ConflictAnalyzerStats()
        recorder.expose(self.stats)

    @property
    def base(self) -> BuildContext:
        """The context analyses are derived from (the mainline HEAD's)."""
        return self._base

    # -- per-change analysis ------------------------------------------------

    def analyze(self, change: Change) -> _ChangeAnalysis:
        """Compute (and cache) the change's taint, structure flag and graph.

        Incremental: one ``derive_stack`` over the base — only touched
        packages' BUILD files are re-parsed, and only the touched targets'
        reverse-dependency closure is rehashed.
        """
        cached = self._per_change.get(change.change_id)
        if cached is not None:
            return cached
        if change.patch is None:
            raise ValueError(f"change {change.change_id} carries no patch")
        analysis = self._analyze_patch(change.patch)
        self._per_change[change.change_id] = analysis
        self._index(change.change_id, analysis)
        if change.change_id in self._invalidated:
            # A head advance dropped this change's cached analysis; this
            # recompute is the work the carry-over failed to save.
            self._invalidated.discard(change.change_id)
            self.stats.analyses_recomputed += 1
        return analysis

    def _analyze_patch(self, patch: Patch) -> _ChangeAnalysis:
        base = self._base
        merged = base.derive_stack((patch,))
        taint = delta_names(
            delta_from_dirty(base.hashes, merged.hashes, merged.dirty_since_base)
        )
        touched = frozenset(patch.paths)
        # The derived graph is the base's own object when no BUILD file is
        # in the patch — the ~92-98% content-only case.
        graph: Optional[BuildGraph] = None
        structure_changed = False
        if merged.graph is not base.graph:
            graph = merged.graph
            taint.update(base.hashes.keys() - merged.hashes.keys())
            # The structure is the base's iff the reloaded packages add,
            # redeclare and remove nothing.
            structure_changed = merged.added_targets(base) != []
        self.stats.analyses += 1
        self.stats.targets_rehashed += merged.rehashed
        self.stats.targets_total += len(merged.graph)
        return _ChangeAnalysis(
            patch=patch,
            touched=touched,
            taint=frozenset(taint),
            structure_changed=structure_changed,
            graph=graph,
        )

    def _graph_of(self, analysis: _ChangeAnalysis) -> BuildGraph:
        return self._base.graph if analysis.graph is None else analysis.graph

    def _delta(self, patch: Patch) -> FrozenSet[AffectedTarget]:
        """``δ`` of one patch against the current base, derived afresh."""
        base = self._base
        merged = base.derive_stack((patch,))
        return delta_from_dirty(base.hashes, merged.hashes, merged.dirty_since_base)

    def affected_targets(self, change: Change) -> FrozenSet[AffectedTarget]:
        """The paper's ``δ_{H⊕C}`` for one change, against the current base.

        The digests are derived here, one ``derive_stack`` per call: an
        analysis keeps only names, which survive head advances that
        digests do not.
        """
        return self._delta(self.analyze(change).patch)

    def changes_build_graph(self, change: Change) -> bool:
        """Whether the change alters build-graph structure (section 5.2)."""
        return self.analyze(change).structure_changed

    # -- cache lifecycle ------------------------------------------------------

    def forget(self, change_id: ChangeId) -> None:
        """Evict one change's cached analysis and its index entries.

        Call when a change leaves the pending set (committed, rejected, or
        aborted); without eviction the caches grow with every change ever
        analyzed.
        """
        analysis = self._per_change.pop(change_id, None)
        if analysis is not None:
            self._unindex(change_id, analysis)
        self._invalidated.discard(change_id)

    def cached_change_ids(self) -> FrozenSet[ChangeId]:
        """Change ids with a live cached analysis (for tests/monitoring)."""
        return frozenset(self._per_change)

    # -- the candidate index ---------------------------------------------------

    def _index(self, change_id: ChangeId, analysis: _ChangeAnalysis) -> None:
        if analysis.structure_changed:
            self._structural.add(change_id)
            return
        for name in analysis.taint:
            self._by_taint.setdefault(name, set()).add(change_id)
        for path in analysis.touched:
            self._by_path.setdefault(path, set()).add(change_id)

    def _unindex(self, change_id: ChangeId, analysis: _ChangeAnalysis) -> None:
        if analysis.structure_changed:
            self._structural.discard(change_id)
            return
        for index, keys in (
            (self._by_taint, analysis.taint),
            (self._by_path, analysis.touched),
        ):
            for key in keys:
                members = index[key]
                members.discard(change_id)
                if not members:
                    del index[key]

    def conflict_candidates(
        self, change: Change, pending: Sequence[Change]
    ) -> Optional[List[ChangeId]]:
        """Ids of the ``pending`` changes ``change`` may conflict with.

        ``None`` means all of them.  Every pending change left out would
        get ``False`` from :meth:`conflict`: both analyses are cached and
        non-structural, so the verdict is the fast path's name
        intersection unless the patches overlap textually, and the two
        share neither a tainted name nor a touched path.  Three sets
        escape the name look-up because their verdict is not a name
        intersection:

        * pending changes sharing a *path* with ``change`` — a textual
          overlap conflicts whatever the targets say, and a path no
          target owns taints nothing;
        * *structural* pending changes — the slow path propagates taint
          along edges only one side's graph has;
        * *un-analysable* pending changes (the patch no longer applies,
          the BUILD files do not load), which :meth:`conflict` answers
          ``True``.

        A structural or un-analysable ``change`` is compared with
        everything, as is any change when nothing is pending — without
        being analysed, there being nothing to look up.  Pending changes
        with no cached analysis (first seen, or invalidated by a head
        advance) are analysed here, as the full sweep would on reaching
        them.  Left-out pairs are counted in ``stats.skipped``, so
        ``checks + skipped`` is the full sweep's pair count.
        """
        if not pending:
            return None
        try:
            analysis = self.analyze(change)
        except (PatchConflictError, BuildSystemError):
            return None
        if analysis.structure_changed:
            return None
        hits: Set[ChangeId] = set()
        for other in pending:
            if other.change_id not in self._per_change:
                try:
                    self.analyze(other)
                except (PatchConflictError, BuildSystemError):
                    hits.add(other.change_id)
        hits.update(self._structural)
        for name in analysis.taint:
            hits.update(self._by_taint.get(name, ()))
        for path in analysis.touched:
            hits.update(self._by_path.get(path, ()))
        candidates = [
            other.change_id for other in pending if other.change_id in hits
        ]
        self.stats.skipped += len(pending) - len(candidates)
        return candidates

    def advance_base(
        self,
        new_base: BuildContext,
        committed_paths: Optional[Iterable[Path]] = None,
    ) -> None:
        """Adopt the new mainline HEAD's context as the base, carrying caches.

        ``new_base`` is already advanced — in a service, by the build
        controller landing the commit — so nothing is reloaded or rehashed
        here.  ``committed_paths`` is every path that differs between the
        old and new base (the union of the committed patches' paths).
        When it is unknown (``None``) every cached analysis is dropped.

        A cached analysis is **revalidated** (kept as it is) when

        1. it is not structural;
        2. its touched paths are disjoint from the committed paths, so its
           patch still applies and writes the same content;
        3. the commit kept the graph (a content-only advance); or it only
           *added* targets — every pre-existing target keeps its
           declaration — and the analysis reloaded no BUILD file, touches
           no source of an added target, and taints no target an added
           one depends on directly.

        Otherwise it is dropped and recomputed lazily on next use.

        Why a survivor's names cannot have moved.  A digest is an
        injective frame of the target's declaration, its sources' contents
        and its dependencies' digests.  So, on any base, a target is
        tainted by a patch that redeclares nothing (a non-structural one)
        iff the patch gives one of its sources a content the base does not
        hold there, or one of its dependencies is tainted.  A patch that
        leaves a digest unchanged — say it rewrites a source with the text
        already there — changed none of those inputs on the old base; by
        (2) the new base holds the same text at every touched path, so it
        changes none on the new one either.  For the pre-existing targets
        the declarations, and so the edges, are the same on both bases
        (3), and induction in dependency order gives the same taint.  An
        added target has no touched source (3), and its dependencies are
        added targets — untainted by the same induction — or pre-existing
        ones outside the taint (3).  Checking direct dependencies is
        enough: a taint is closed under dependents, so it reaches an added
        target's transitive dependencies only through a direct one.

        Names are all a verdict reads: the fast path intersects taints,
        and a content-only analysis reads the current base's graph.  So a
        survivor keeps its taint and touched paths, and its
        candidate-index entries stand; dropped analyses leave the index.
        The cost is one test per cached analysis plus the graphs'
        difference: the splice's own record when one commit landed since
        the old base, a pass over both graphs when several did.
        """
        self.stats.head_advances += 1
        old, self._base = self._base, new_base

        survivors: Dict[ChangeId, _ChangeAnalysis] = {}
        if committed_paths is not None:
            committed = frozenset(committed_paths)
            structural_commit = new_base.graph is not old.graph
            added = new_base.added_targets(old) if structural_commit else []
            if added is not None:
                added_names = {target.name for target in added}
                read_paths = {src for target in added for src in target.srcs}
                read_targets = {
                    dep
                    for target in added
                    for dep in target.deps
                    if dep not in added_names
                }
                for change_id, analysis in self._per_change.items():
                    if (
                        not analysis.structure_changed
                        and analysis.touched.isdisjoint(committed)
                        and (
                            not structural_commit
                            or (
                                analysis.graph is None
                                and analysis.touched.isdisjoint(read_paths)
                                and analysis.taint.isdisjoint(read_targets)
                            )
                        )
                    ):
                        survivors[change_id] = analysis
        self.stats.analyses_revalidated += len(survivors)
        # Dropped analyses are *invalidated*, not yet recomputed: the
        # recompute counter moves when analyze() actually redoes the work.
        self._invalidated.update(
            change_id for change_id in self._per_change if change_id not in survivors
        )
        for change_id, analysis in self._per_change.items():
            if change_id not in survivors:
                self._unindex(change_id, analysis)
        self._per_change = survivors

    # -- pairwise conflicts ---------------------------------------------------

    def conflict(self, first: Change, second: Change) -> bool:
        """Do two changes potentially conflict against the base snapshot?"""
        if first.change_id == second.change_id:
            return False
        assert first.patch is not None and second.patch is not None
        # Textual overlap is a conflict regardless of target structure: the
        # patches cannot even merge cleanly.
        if three_way_conflicts(first.patch, second.patch):
            self.stats.textual += 1
            return True
        try:
            a = self.analyze(first)
            b = self.analyze(second)
        except (PatchConflictError, BuildSystemError):
            # A patch that no longer applies to the base, or whose BUILD
            # files do not load on it, has no delta to compare.  Assume a
            # conflict: the change queues behind the other one, and its
            # own build reports the merge conflict or the graph error.
            self.stats.textual += 1
            return True
        if not a.structure_changed and not b.structure_changed:
            # Fast path: structure identical, name intersection is exact.
            self.stats.fast_path += 1
            return not a.taint.isdisjoint(b.taint)
        self.stats.slow_path += 1
        return cone_conflict(
            self._base.graph, self._graph_of(a), a.taint, self._graph_of(b), b.taint
        )

    def conflict_equation6(self, first: Change, second: Change) -> bool:
        """Exact Equation-6 check (builds the combined snapshot).

        Used by tests to validate the union-graph algorithm; O(n²) build
        graphs, so never used on the hot path.  Changes whose patches
        cannot compose textually conflict by definition.
        """
        assert first.patch is not None and second.patch is not None
        a = self.analyze(first)
        b = self.analyze(second)
        try:
            combined = second.patch.apply(first.patch.apply(self._base.snapshot))
        except PatchConflictError:
            return True
        base_hashes = self._base.hashes
        delta_ij = frozenset(
            AffectedTarget(name, digest)
            for name, digest in BuildContext.load(combined).hashes.items()
            if base_hashes.get(name) != digest
        )
        return equation6_conflict(
            self._delta(a.patch), self._delta(b.patch), delta_ij
        )
