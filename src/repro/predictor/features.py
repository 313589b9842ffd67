"""Feature extraction for the success and conflict models (section 7.2).

The paper hand-picked ~100 features in four groups — change, revision,
developer, and speculation history.  This extractor implements the ones
the paper names explicitly (the highest-correlation survivors of their
recursive feature elimination) plus the running developer statistics it
describes:

* change: affected-target count, commit count, files/lines/hunks changed,
  binaries added or removed, initial presubmit test status;
* revision: submit count, revert plan, test plan;
* developer: tenure, level, running land success rate, and for conflicts
  the pairwise developer conflict history ("developers working on the same
  set of features conflict with each other more often");
* speculation: number of succeeded and failed speculations so far —
  dynamic features refreshed every epoch.

The extractor is stateful: :meth:`observe_outcome` and
:meth:`observe_conflict` feed back decided changes so the developer
statistics track history, exactly as a production deployment would.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.changes.change import Change
from repro.changes.state import ChangeRecord
from repro.types import DeveloperId

#: Ordered names of the success-model features.
SUCCESS_FEATURES: Tuple[str, ...] = (
    "n_affected_targets",
    "n_commits",
    "n_files_changed",
    "n_lines_added",
    "n_hunks",
    "n_binaries_changed",
    "initial_tests_passed",
    "revision_submit_count",
    "has_revert_plan",
    "has_test_plan",
    "dev_tenure_years",
    "dev_level",
    "dev_success_rate",
    "dev_land_attempts",
    "speculations_succeeded",
    "speculations_failed",
)

#: Ordered names of the conflict-model features.
CONFLICT_FEATURES: Tuple[str, ...] = (
    "shared_targets",
    "overlap_jaccard",
    "min_affected_targets",
    "max_affected_targets",
    "same_developer",
    "dev_pair_conflict_rate",
    "submit_gap",
    "either_changes_build_graph",
    "combined_lines",
    "combined_fragility",
    "module_overlap",
)


@dataclass
class _DeveloperHistory:
    """Running land statistics for one developer."""

    attempts: int = 0
    successes: int = 0

    @property
    def success_rate(self) -> float:
        # Laplace-smoothed so new developers start at the prior 0.5.
        return (self.successes + 1.0) / (self.attempts + 2.0)


@dataclass
class _PairHistory:
    """Running conflict statistics for a developer pair."""

    checks: int = 0
    conflicts: int = 0

    @property
    def conflict_rate(self) -> float:
        return (self.conflicts + 1.0) / (self.checks + 10.0)


class FeatureExtractor:
    """Turns changes (and change pairs) into model feature vectors."""

    def __init__(self) -> None:
        self._dev_history: Dict[DeveloperId, _DeveloperHistory] = defaultdict(
            _DeveloperHistory
        )
        self._pair_history: Dict[Tuple[DeveloperId, DeveloperId], _PairHistory] = (
            defaultdict(_PairHistory)
        )
        self._revision_submits: Dict[str, int] = defaultdict(int)

    # -- static helpers -----------------------------------------------------

    @staticmethod
    def _affected_count(change: Change) -> float:
        if "n_affected_targets" in change.features:
            return change.features["n_affected_targets"]
        if change.ground_truth is not None:
            return float(len(change.ground_truth.target_names))
        return 1.0

    @staticmethod
    def _feature(change: Change, name: str, default: float = 0.0) -> float:
        return float(change.features.get(name, default))

    # -- success model ------------------------------------------------------

    def success_vector(
        self, change: Change, record: Optional[ChangeRecord] = None
    ) -> np.ndarray:
        """Feature vector for ``P_succ``; order matches SUCCESS_FEATURES."""
        developer = change.developer
        history = self._dev_history[developer.developer_id]
        lines = self._feature(change, "n_lines_added",
                              float(change.patch.touched_lines()) if change.patch else 10.0)
        files = self._feature(change, "n_files_changed",
                              float(len(change.patch)) if change.patch else 1.0)
        revision_submits = self._feature(
            change,
            "revision_submit_count",
            float(self._revision_submits[change.revision_id]),
        )
        values = [
            self._affected_count(change),
            self._feature(change, "n_commits", 1.0),
            files,
            lines,
            self._feature(change, "n_hunks", max(1.0, files)),
            self._feature(change, "n_binaries_changed", 0.0),
            self._feature(change, "initial_tests_passed", 1.0),
            revision_submits,
            self._feature(change, "has_revert_plan", 1.0),
            self._feature(change, "has_test_plan", 1.0),
            developer.tenure_years,
            float(developer.level),
            history.success_rate,
            float(history.attempts),
            float(record.speculations_succeeded) if record else 0.0,
            float(record.speculations_failed) if record else 0.0,
        ]
        return np.asarray(values, dtype=float)

    # -- conflict model ---------------------------------------------------

    def conflict_vector(self, first: Change, second: Change) -> np.ndarray:
        """Feature vector for ``P_conf``; order matches CONFLICT_FEATURES."""
        names_a = (
            first.ground_truth.target_names if first.ground_truth else frozenset()
        )
        names_b = (
            second.ground_truth.target_names if second.ground_truth else frozenset()
        )
        shared = len(names_a & names_b)
        union = len(names_a | names_b)
        count_a = self._affected_count(first)
        count_b = self._affected_count(second)
        pair = self._pair_key(first.developer_id, second.developer_id)
        graph_change = 0.0
        for change in (first, second):
            if change.ground_truth is not None and change.ground_truth.changes_build_graph:
                graph_change = 1.0
        lines_a = self._feature(first, "n_lines_added", 10.0)
        lines_b = self._feature(second, "n_lines_added", 10.0)
        fine_a = (
            first.ground_truth.fine_names() if first.ground_truth else frozenset()
        )
        fine_b = (
            second.ground_truth.fine_names() if second.ground_truth else frozenset()
        )
        values = [
            float(shared),
            (shared / union) if union else 0.0,
            min(count_a, count_b),
            max(count_a, count_b),
            1.0 if first.developer_id == second.developer_id else 0.0,
            self._pair_history[pair].conflict_rate,
            abs(first.submitted_at - second.submitted_at),
            graph_change,
            lines_a + lines_b,
            first.developer.area_fragility + second.developer.area_fragility,
            float(len(fine_a & fine_b)),
        ]
        return np.asarray(values, dtype=float)

    @staticmethod
    def _pair_key(a: DeveloperId, b: DeveloperId) -> Tuple[DeveloperId, DeveloperId]:
        return (a, b) if a <= b else (b, a)

    # -- history feedback ---------------------------------------------------

    def observe_outcome(self, change: Change, committed: bool) -> None:
        """Feed a decided change back into developer history."""
        history = self._dev_history[change.developer_id]
        history.attempts += 1
        if committed:
            history.successes += 1

    def observe_conflict(
        self, first: Change, second: Change, conflicted: bool
    ) -> None:
        """Feed an observed (non-)conflict back into pair history."""
        pair = self._pair_key(first.developer_id, second.developer_id)
        history = self._pair_history[pair]
        history.checks += 1
        if conflicted:
            history.conflicts += 1

    def developer_success_rate(self, developer_id: DeveloperId) -> float:
        return self._dev_history[developer_id].success_rate
