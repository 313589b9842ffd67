"""The artifact cache: step results keyed by target hash x step kind.

Because an Algorithm-1 hash covers a target's whole transitive input
closure, ``(hash, step kind)`` fully determines a hermetic step's outcome
— so a hit is always sound to reuse, failures included.  This cache is
the paper's minimal-build-step mechanism (section 6.2): a speculative
build of ``H ⊕ S ⊕ C`` re-derives the same hashes for every target whose
inputs a parent speculation already built, and those steps become hits
instead of work.

Eviction is LRU with a configurable capacity so long simulations hold
memory steady; :class:`CacheStats` feeds the cache-effectiveness
experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.buildsys.steps import StepResult
from repro.types import StepKind

#: Default LRU capacity — plenty for every simulation in the repo while
#: still bounding a pathological run.
DEFAULT_CAPACITY = 1 << 16


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactCache:
    """LRU map from ``(target hash, step kind)`` to :class:`StepResult`."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: Each entry stores both spellings of the result — (un-cached as
        #: put, cached-marked as get returns) — so a hit hands back a
        #: stored object instead of allocating a dataclass copy per lookup.
        #: The executor's step loop reads it as :meth:`get` does and, on
        #: a miss, stores the evaluator's pair as :meth:`put` would: a
        #: passing step's pair is its target's
        #: (:attr:`~repro.buildsys.target.Target.passing_entries`), one
        #: object shared by every digest that target has.
        self.entries: "OrderedDict[Tuple[str, StepKind], Tuple[StepResult, StepResult]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, digest: str, kind: StepKind) -> Optional[StepResult]:
        """The cached result, marked ``cached=True``, or None on a miss."""
        key = (digest, kind)
        entry = self.entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.entries.move_to_end(key)
        self.stats.hits += 1
        return entry[1]

    def put(self, digest: str, kind: StepKind, result: StepResult) -> None:
        """Store one step result (stored un-cached; ``get`` adds the mark)."""
        key = (digest, kind)
        spec, passed, log = result.spec, result.passed, result.log
        stored = result if not result.cached else StepResult(spec, passed, log)
        self.entries[key] = (stored, StepResult(spec, passed, log, True))
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats.evictions += 1

    def items(self):
        """Live entries in LRU order (oldest first), un-cached spelling.

        Yields ``((digest, kind), result)`` pairs; re-``put``-ting them in
        order into an empty cache reproduces both contents and eviction
        order, which is how journal snapshots persist cache warmth.
        """
        for key, (stored, _cached) in self.entries.items():
            yield key, stored

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating."""
        self.entries.clear()
