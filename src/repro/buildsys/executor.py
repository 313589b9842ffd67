"""The build executor: full, subset and delta builds over build contexts.

Walks a :class:`BuildContext`'s graph in dependency-first order,
consulting the artifact cache before every step and asking
:func:`repro.buildsys.steps.evaluate_entries` at most once per target, at
its first miss.  Nothing here reads a source: a :class:`BuildContext`
carries its targets' directive summaries beside their hashes (``load``
scans every target, ``derive`` only the dirty seeds).  Two entry points
matter to SubmitQueue:

* :meth:`BuildExecutor.build` — everything (or a target subset plus its
  dependency closure): what "the mainline is green" means for one commit;
* :meth:`BuildExecutor.build_between` — only the hash-delta between two
  contexts: what a speculative build actually runs (section 6.2), with
  prior builds' work eliminated via cache hits.  The base context is
  memoized per mainline head and the changed one derived in O(delta), so
  the O(repo) graph load and whole-snapshot hashing are paid once per
  head instead of once per build.

:meth:`BuildContext.derive_stack` is the one place a speculation stack
``H ⊕ S ⊕ C`` is folded onto the base context; the serial controller and
the parallel workers both call it.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import DigestMemo, TargetHasher, incremental_hashes
from repro.buildsys.loader import load_build_graph, reload_packages
from repro.buildsys.steps import DirectiveSummaries, StepResult, evaluate_entries, summarize
from repro.buildsys.target import Target
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.types import Path, TargetName
from repro.vcs.patch import Patch, SnapshotOverlay


@dataclass
class BuildReport:
    """Everything one build did: per-step results and targets covered.

    ``success``/``steps_executed``/``steps_cached`` are running counters
    maintained by :meth:`append` (seeded from any ``results`` passed to
    the constructor, or handed over by :meth:`counted`) — the planner
    reads them once per build in its hot loop, so they must not re-scan
    ``results`` on access.
    """

    results: List[StepResult] = field(default_factory=list)
    targets_built: List[TargetName] = field(default_factory=list)
    _executed: int = field(default=0, init=False, repr=False, compare=False)
    _cached: int = field(default=0, init=False, repr=False, compare=False)
    _first_failure: Optional[StepResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.results = list(self.results)
        self._tally(self.results)

    @classmethod
    def counted(
        cls,
        results: List[StepResult],
        targets_built: List[TargetName],
        executed: int,
        first_failure: Optional[StepResult],
    ) -> "BuildReport":
        """A report over lists its builder already tallied: ``executed`` of
        ``results`` were cache misses, the rest hits.  The lists are
        taken as they are, neither copied nor scanned again."""
        report = cls(targets_built=targets_built)
        report.results = results
        report._executed = executed
        report._cached = len(results) - executed
        report._first_failure = first_failure
        return report

    def append(self, result: StepResult) -> None:
        """Record one step result, keeping the running counters in sync."""
        self.results.append(result)
        self._tally((result,))

    def _tally(self, results: Iterable[StepResult]) -> None:
        for result in results:
            if result.cached:
                self._cached += 1
            else:
                self._executed += 1
            if not result.passed and self._first_failure is None:
                self._first_failure = result

    @property
    def success(self) -> bool:
        """True when every executed-or-reused step passed (vacuously true)."""
        return self._first_failure is None

    def failures(self) -> List[StepResult]:
        return [result for result in self.results if not result.passed]

    def first_failure(self) -> Optional[StepResult]:
        return self._first_failure

    @property
    def steps_executed(self) -> int:
        """Steps actually evaluated (cache misses)."""
        return self._executed

    @property
    def steps_cached(self) -> int:
        """Steps satisfied from the artifact cache."""
        return self._cached


class BuildContext:
    """One snapshot's loaded graph and Algorithm-1 hash map, derivable in O(delta).

    A context created with :meth:`load` pays the full ``load_build_graph``
    + ``all_hashes`` cost once; every context derived from it with
    :meth:`derive` pays only for the touched packages and the dirty
    reverse-dependency closure (the same machinery the conflict analyzer
    uses).  :meth:`derive_stack` folds a whole patch stack in one such
    step.  Contexts are immutable value holders — safe to memoize per
    base commit.

    ``dirty_since_base`` accumulates the union of dirty closures along the
    derivation chain back to the root context: any target whose digest can
    differ from the root's is in it (digests outside it were copied
    verbatim by the seeded hasher at every step).  ``None`` marks a root.
    """

    __slots__ = (
        "snapshot",
        "graph",
        "hashes",
        "directives",
        "dirty_since_base",
        "rehashed",
        "_digest_memo",
    )

    def __init__(
        self,
        snapshot: Mapping[Path, str],
        graph: BuildGraph,
        hashes: Mapping[TargetName, str],
        directives: DirectiveSummaries,
        dirty_since_base: Optional[frozenset] = None,
        rehashed: int = 0,
        digest_memo: Optional[DigestMemo] = None,
    ) -> None:
        self.snapshot = snapshot
        self.graph = graph
        #: A plain dict for a root; a derive that kept the graph holds its
        #: closure's digests as a :class:`SnapshotOverlay` over the base's.
        self.hashes = hashes
        #: What each target's own sources say: scanned whole by ``load``,
        #: by ``derive`` only where a source or a declaration changed.
        self.directives = directives
        self.dirty_since_base = dirty_since_base
        #: Digests recomputed when this context was derived (0 for roots).
        self.rehashed = rehashed
        # Shared by every context derived from this one — and by every
        # root loaded with the same memo — so a target whose inputs any of
        # them hashed is never digested twice.
        self._digest_memo = digest_memo if digest_memo is not None else DigestMemo()

    @classmethod
    def load(
        cls,
        snapshot: Mapping[Path, str],
        digest_memo: Optional[DigestMemo] = None,
    ) -> "BuildContext":
        """A root context: full graph load + whole-snapshot hashing.

        ``digest_memo`` is the memo the context and everything derived
        from it hash through (default: a fresh one)."""
        if digest_memo is None:
            digest_memo = DigestMemo()
        graph = load_build_graph(snapshot)
        hashes = TargetHasher(graph, snapshot, digest_memo=digest_memo).all_hashes()
        directives = summarize(graph, snapshot)
        return cls(snapshot, graph, hashes, directives, digest_memo=digest_memo)

    def derive(
        self,
        snapshot: Mapping[Path, str],
        touched_paths: Iterable[Path],
    ) -> "BuildContext":
        """The context for ``snapshot``, which is this context's snapshot
        with only ``touched_paths`` changed (typically the overlay returned
        by ``Patch.apply``).  Costs O(touched packages + dirty closure).
        """
        touched = set(touched_paths)
        graph = reload_packages(self.graph, snapshot, touched)
        hashes, dirty, computed, seeds = incremental_hashes(
            self.graph, self.hashes, graph, snapshot, touched, self._digest_memo
        )
        directives = summarize(
            [graph.by_name[name] for name in seeds],
            snapshot,
            self.directives,
            graph.changes_since(self.graph)[1],
        )
        accumulated = (
            frozenset(dirty)
            if self.dirty_since_base is None
            else self.dirty_since_base | dirty
        )
        return BuildContext(
            snapshot,
            graph,
            hashes,
            directives,
            dirty_since_base=accumulated,
            rehashed=computed,
            digest_memo=self._digest_memo,
        )

    def derive_stack(self, patches: Iterable[Patch]) -> "BuildContext":
        """The context for this snapshot with ``patches`` applied in order.

        Each patch is checked against the view the patches before it
        produce, so :class:`~repro.errors.PatchConflictError` is raised at
        the same patch, with the same path and message, as applying them
        one by one.  The stack then costs *one* overlay above this
        snapshot and *one* rehash of the union's reverse-dependency
        closure, however many patches it holds.
        """
        delta: Dict[Path, Optional[str]] = {}
        # A deleted path maps to None in ``delta``; ``check_applies`` reads
        # through ``get`` and treats None as missing, which is what we want.
        view = ChainMap(delta, self.snapshot)
        for patch in patches:
            patch.check_applies(view)
            delta.update(patch.delta())
        return self.derive(SnapshotOverlay(self.snapshot, delta), delta)

    def as_root(self) -> "BuildContext":
        """This context re-labelled as a derivation root (new mainline base).

        Its snapshot is flattened into a plain dict — a C-level copy of
        the base dict with the delta applied — so every overlay derived
        from a root is one layer over a dict, and its hash map is a plain
        dict for the same reason.

        A new base is a new generation of the shared digest memo: digests
        no derivation has asked for since the previous base are retired.
        """
        snapshot = self.snapshot
        if isinstance(snapshot, SnapshotOverlay):
            snapshot = snapshot.to_dict()
        hashes = self.hashes
        if isinstance(hashes, SnapshotOverlay):
            hashes = hashes.to_dict()
        self._digest_memo.rotate()
        return BuildContext(
            snapshot,
            self.graph,
            hashes,
            self.directives,
            dirty_since_base=None,
            digest_memo=self._digest_memo,
        )

    def affected_against(self, base: "BuildContext") -> List[TargetName]:
        """Targets whose digest differs from ``base``, in build order: the
        graph's full topological order, which decides the step that fails
        first under ``stop_on_failure``.

        When this context was derived (transitively) from ``base``, only
        the accumulated dirty set can differ — everything else was copied
        verbatim — so the scan is O(dirty), not O(graph).
        """
        hashes = self.hashes
        if self.dirty_since_base is None:
            candidates: Iterable[TargetName] = hashes
        else:
            candidates = self.dirty_since_base
        base_hashes = base.hashes
        # An overlay is read as its two dicts, as ``_run`` reads it.
        moved: Mapping[TargetName, Optional[str]] = {}
        if isinstance(hashes, SnapshotOverlay):
            moved, hashes = hashes.layered()
        index = self.graph.topo_index()
        affected = [
            name
            for name in candidates
            if name in hashes
            and base_hashes.get(name) != (moved.get(name) or hashes[name])
        ]
        affected.sort(key=index.__getitem__)
        return affected

    def added_targets(self, older: "BuildContext") -> Optional[List[Target]]:
        """The targets this graph declares beyond ``older``'s, when that is
        all that differs: every target of ``older`` is still declared here
        with the same definition.  ``None`` when one was removed or
        redeclared; ``[]`` when the two graphs have the same structure.

        Read off :meth:`BuildGraph.changes_since`: O(1) when this graph was
        spliced from ``older``'s, a pass over both graphs otherwise; no
        BUILD file is parsed again.
        """
        changed, gone = self.graph.changes_since(older.graph)
        if gone or any(name in older.graph for name in changed):
            return None
        return [self.graph.target(name) for name in changed]


class BuildExecutor:
    """Executes build steps over snapshots, sharing one artifact cache."""

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        self.recorder = recorder

    def build(
        self,
        snapshot: Mapping[Path, str],
        targets: Optional[Iterable[TargetName]] = None,
        stop_on_failure: bool = False,
    ) -> BuildReport:
        """Build the whole snapshot, or ``targets`` plus their dep closures."""
        context = BuildContext.load(snapshot)
        graph = context.graph
        order = graph.topological_order()
        if targets is not None:
            wanted = set()
            for name in targets:
                graph.target(name)  # unknown targets are an error
                wanted.add(name)
                wanted |= graph.transitive_deps(name)
            order = [name for name in order if name in wanted]
        return self._run(context, order, stop_on_failure)

    def build_between(
        self,
        base: BuildContext,
        changed: BuildContext,
        stop_on_failure: bool = False,
    ) -> BuildReport:
        """Build only the targets whose hash differs between two contexts.

        This is the delta build a speculation runs: targets outside the
        delta kept their hashes, so the base build already vouches for
        them.  An empty delta yields an empty (successful) report.  When
        ``changed`` was derived from ``base`` only its dirty closure is
        compared; two loaded roots compare every hash.
        """
        return self._run(changed, changed.affected_against(base), stop_on_failure)

    def _run(
        self,
        context: BuildContext,
        order: List[TargetName],
        stop_on_failure: bool,
    ) -> BuildReport:
        """The one step loop over ``order``, a build-ordered subset of
        ``context``'s targets.

        It reads the digests and the cache's entries as dicts and stores
        a miss's result pair straight into them, with
        :meth:`ArtifactCache.put`'s LRU position and eviction; it counts
        hits, misses and the report's tallies as it goes and calls out
        only for a target's first miss (its evaluation).  A passing step
        allocates nothing: its pair is its target's.
        """
        graph = context.graph
        targets = graph.by_name
        hashes = context.hashes
        moved: Mapping[TargetName, Optional[str]] = {}
        if isinstance(hashes, SnapshotOverlay):
            moved, hashes = hashes.layered()
        directives = context.directives
        cache = self.cache
        entries, capacity, stats = cache.entries, cache.capacity, cache.stats
        results: List[StepResult] = []
        built: List[TargetName] = []
        executed = 0
        first_failure: Optional[StepResult] = None
        for name in order:
            target = targets[name]
            digest = moved.get(name) or hashes[name]
            built.append(name)
            evaluated = None
            for position, kind in enumerate(target.steps):
                key = (digest, kind)
                entry = entries.get(key)
                if entry is None:
                    # A miss stores the evaluator's pair as it is — for a
                    # passing step the target's own — where ``put`` would.
                    if evaluated is None:
                        evaluated = evaluate_entries(graph, target, directives)
                    entry = entries[key] = evaluated[position]
                    while len(entries) > capacity:
                        entries.popitem(last=False)
                        stats.evictions += 1
                    executed += 1
                    result = entry[0]
                else:
                    entries.move_to_end(key)
                    result = entry[1]
                results.append(result)
                if not result.passed and first_failure is None:
                    first_failure = result
                    if stop_on_failure:
                        break
            else:
                continue
            break
        stats.misses += executed
        stats.hits += len(results) - executed
        report = BuildReport.counted(results, built, executed, first_failure)
        self.record_report(report)
        return report

    def record_report(self, report: BuildReport) -> None:
        """Publish one build to the registry.

        Public because builds merged back from a parallel backend are
        reconstructed outside :meth:`_run` yet must feed the same
        executor metrics.  Its step counts are the planner's
        ``build_steps_*_total`` series.
        """
        if not self.recorder.enabled:
            return
        self.recorder.counter(
            "executor_builds_total", "Builds the executor ran."
        ).inc()
        self.recorder.counter(
            "executor_targets_built_total", "Targets covered by builds."
        ).inc(len(report.targets_built))
