"""Single queue à la Bors (section 2.2 / section 8).

"All non-independent changes are enqueued, and processed one by one, à la
Bors.  Independent changes, on the other hand, are processed in
parallel."

So there is exactly **one** global queue: any change that conflicts with
*some* pending change joins it and waits its strict turn — even behind
changes it does not directly conflict with.  Truly independent changes
(no conflict edge at all) build immediately in parallel.  Without the
conflict analyzer every change is non-independent and this collapses to
the pure Bors behaviour whose turnaround the paper projects at 20+ days
for a thousand daily changes.
"""

from __future__ import annotations

from typing import List

from repro.planner.planner import PlannerView
from repro.strategies.base import Strategy
from repro.types import BuildKey


class SingleQueueStrategy(Strategy):
    """One global serial queue plus parallel independent changes."""

    name = "Single-Queue"

    def select(self, view: PlannerView, budget: int) -> List[BuildKey]:
        selected: List[BuildKey] = []
        serial_head_taken = False
        for change in view.pending:
            if len(selected) >= budget:
                break
            if view.conflict_degree(change.change_id) == 0:
                # Independent: build (decisively) in parallel.
                key = view.decisive_key(change.change_id)
                if key is not None:
                    selected.append(key)
            elif not serial_head_taken:
                # Head of the single queue: only this one may build.
                serial_head_taken = True
                key = view.decisive_key(change.change_id)
                if key is not None:
                    selected.append(key)
        return selected
