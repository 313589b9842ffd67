"""Speculate-all: fan out over every possible outcome (section 4.1).

"The fastest and most expensive approach is to speculate on all possible
outcomes for every pending change", i.e. run the whole speculation tree:
``2^n - 1`` builds for ``n`` conflicting pending changes, assuming every
build succeeds or fails with probability 0.5.

Selection walks the tree exactly as Figure 5 draws it — change by change
in queue order, all outcome subsets per change — so a worker budget of W
is exhausted by roughly the first ``log2(W)`` mutually-conflicting
changes.  That is why the paper finds the approach insensitive to adding
workers on deep speculation graphs (section 8.3): the exponential
frontier of the oldest few changes swallows any fleet.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.planner.planner import PlannerView
from repro.strategies.base import Strategy
from repro.types import BuildKey


class SpeculateAllStrategy(Strategy):
    """Breadth-first over the full speculation tree, oldest change first."""

    name = "Speculate-all"

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        decided = view.decided
        selected: List[BuildKey] = []
        for change in view.pending:
            if len(selected) >= budget:
                break
            ancestors = view.records[change.change_id].ancestors
            known_committed = frozenset(
                a for a in ancestors if decided.get(a, False)
            )
            pending_ancestors = [a for a in ancestors if a not in decided]
            # All 2^k outcome subsets, smallest stacks first (the shallow
            # builds are the ones whose results resolve soonest).
            for size in range(len(pending_ancestors) + 1):
                if len(selected) >= budget:
                    break
                for subset in itertools.combinations(pending_ancestors, size):
                    selected.append(
                        BuildKey(
                            change.change_id,
                            frozenset(subset) | known_committed,
                        )
                    )
                    if len(selected) >= budget:
                        break
        return selected
