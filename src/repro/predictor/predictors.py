"""Predictor interfaces consumed by the speculation engine.

A predictor answers two questions (section 4.2):

* :meth:`Predictor.p_success` — probability that a change's build steps
  pass when applied alone on a healthy HEAD;
* :meth:`Predictor.p_conflict` — probability that two changes *really*
  conflict (pass individually, fail combined).

Implementations:

* :class:`OraclePredictor` — reads ground truth; this is the paper's
  Oracle that "can perfectly predict the outcome of a change" and anchors
  every normalized result.
* :class:`StaticPredictor` — fixed probabilities; with 0.5 it reproduces
  the Speculate-all assumption, with 1.0 the Optimistic one.
* :class:`LearnedPredictor` — the SubmitQueue configuration: two logistic
  models over extracted features, refreshed with dynamic speculation
  counts each epoch.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.buildsys.cache import CacheStats
from repro.changes.change import Change
from repro.changes.state import ChangeRecord
from repro.changes.truth import real_conflict
from repro.predictor.features import FeatureExtractor
from repro.predictor.logistic import LogisticRegression


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


class _LruCache:
    """Bounded probability memo (the buildsys artifact-cache LRU idiom).

    Keyed by change ids, an entry also holds the changes it was computed
    from and answers only for equal ones: a different change that reuses
    an id (ids restart per process, or per benchmark module) is asked
    afresh instead of getting another change's probability.
    """

    __slots__ = ("capacity", "_entries", "stats")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Tuple[tuple, float]]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, changes: tuple) -> Optional[float]:
        entry = self._entries.get(key)
        # Tuple comparison tries identity first: the same change objects
        # cost no field comparison.
        if entry is None or entry[0] != changes:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[1]

    def put(self, key: tuple, changes: tuple, value: float) -> None:
        self._entries[key] = (changes, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


class Predictor(abc.ABC):
    """Interface between prediction models and the speculation engine."""

    @abc.abstractmethod
    def p_success(
        self, change: Change, record: Optional[ChangeRecord] = None
    ) -> float:
        """P(all build steps pass for the change alone on a green HEAD)."""

    @abc.abstractmethod
    def p_conflict(self, first: Change, second: Change) -> float:
        """P(the two changes really conflict)."""


class OraclePredictor(Predictor):
    """Perfect foresight from ground-truth labels."""

    def p_success(self, change: Change, record: Optional[ChangeRecord] = None) -> float:
        if change.ground_truth is None:
            raise ValueError(f"oracle needs ground truth on {change.change_id}")
        return 1.0 if change.ground_truth.individually_ok else 0.0

    def p_conflict(self, first: Change, second: Change) -> float:
        return 1.0 if real_conflict(first, second) else 0.0


class StaticPredictor(Predictor):
    """Fixed probabilities; the degenerate baselines use this."""

    def __init__(self, success: float = 0.5, conflict: float = 0.5) -> None:
        if not 0.0 <= success <= 1.0 or not 0.0 <= conflict <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        self._success = success
        self._conflict = conflict

    def p_success(self, change: Change, record: Optional[ChangeRecord] = None) -> float:
        return self._success

    def p_conflict(self, first: Change, second: Change) -> float:
        return self._conflict


class LearnedPredictor(Predictor):
    """Logistic-regression predictor over extracted features."""

    #: Entries each probability memo holds (LRU): ample for every
    #: simulation in the repo while bounding a long service run (the pair
    #: memo is quadratic in pending changes).
    CACHE_CAPACITY = 1 << 16

    def __init__(
        self,
        success_model: LogisticRegression,
        conflict_model: LogisticRegression,
        extractor: Optional[FeatureExtractor] = None,
    ) -> None:
        self._success_model = success_model
        self._conflict_model = conflict_model
        self.extractor = extractor if extractor is not None else FeatureExtractor()
        # Planner epochs re-ask the same probabilities thousands of times;
        # cache per (change, dynamic counters) and per pair.  LRU-bounded
        # so a long service run holds memory steady (the pair cache grows
        # quadratically with pending changes otherwise).
        self._success_cache = _LruCache(self.CACHE_CAPACITY)
        self._conflict_cache = _LruCache(self.CACHE_CAPACITY)

    @property
    def cache_evictions(self) -> int:
        """Entries evicted across both probability memos."""
        return (
            self._success_cache.stats.evictions
            + self._conflict_cache.stats.evictions
        )

    @property
    def cache_stats(self) -> Tuple[CacheStats, CacheStats]:
        """(success-cache, conflict-cache) hit/miss/eviction counters."""
        return self._success_cache.stats, self._conflict_cache.stats

    @staticmethod
    def _success_key(change: Change, record: Optional[ChangeRecord]) -> tuple:
        return (
            change.change_id,
            record.speculations_succeeded if record else 0,
            record.speculations_failed if record else 0,
        )

    def p_success(self, change: Change, record: Optional[ChangeRecord] = None) -> float:
        key = self._success_key(change, record)
        cached = self._success_cache.get(key, (change,))
        if cached is None:
            vector = self.extractor.success_vector(change, record)
            cached = _clamp(self._success_model.predict_one(vector))
            self._success_cache.put(key, (change,), cached)
        return cached

    def p_success_many(
        self, pairs: Sequence[Tuple[Change, Optional[ChangeRecord]]]
    ) -> List[float]:
        """``p_success`` for a batch, answering cold entries vectorized.

        Cache misses are gathered into one feature matrix and scored with
        a single :meth:`LogisticRegression.predict_many` pass; hits come
        from the memo exactly as :meth:`p_success` would return them.
        """
        values: List[Optional[float]] = []
        cold_vectors: List[Sequence[float]] = []
        cold_indices: List[int] = []
        for index, (change, record) in enumerate(pairs):
            cached = self._success_cache.get(
                self._success_key(change, record), (change,)
            )
            values.append(cached)
            if cached is None:
                cold_vectors.append(self.extractor.success_vector(change, record))
                cold_indices.append(index)
        if cold_indices:
            predicted = self._success_model.predict_many(cold_vectors)
            for index, raw in zip(cold_indices, predicted):
                change, record = pairs[index]
                value = _clamp(float(raw))
                self._success_cache.put(
                    self._success_key(change, record), (change,), value
                )
                values[index] = value
        return values  # type: ignore[return-value]  # every slot is filled now

    def p_conflict(self, first: Change, second: Change) -> float:
        pair = (
            (first, second)
            if first.change_id <= second.change_id
            else (second, first)
        )
        key = (pair[0].change_id, pair[1].change_id)
        cached = self._conflict_cache.get(key, pair)
        if cached is None:
            vector = self.extractor.conflict_vector(first, second)
            cached = _clamp(self._conflict_model.predict_one(vector))
            self._conflict_cache.put(key, pair, cached)
        return cached

    # Feedback hooks: the planner calls these as changes decide so the
    # running developer statistics stay current.  Cached probabilities for
    # *already-asked* (change, counters) keys are kept — history feedback
    # affects changes submitted later (fresh ids, fresh cache keys), while
    # a pending change's probability still refreshes whenever its dynamic
    # speculation counters move, which is the feedback loop section 7.2
    # singles out as most predictive.
    def observe_outcome(self, change: Change, committed: bool) -> None:
        self.extractor.observe_outcome(change, committed)

    def observe_conflict(self, first: Change, second: Change, conflicted: bool) -> None:
        self.extractor.observe_conflict(first, second, conflicted)
