"""Probabilistic speculation (paper section 4).

The speculation engine decides *which* of the up-to ``2^n - 1`` possible
speculative builds to run, given that only ``n`` of them will ever be
needed.  It combines:

* :mod:`repro.speculation.probability` — Equations 1–5: commit-probability
  estimation and the probability that a build's result will be needed;
* :mod:`repro.speculation.tree` — speculation nodes and the lazy
  best-first enumeration of a change's builds in decreasing value order;
* :mod:`repro.speculation.engine` — the engine: merges per-change
  enumerators into a global top-value selection under a worker budget
  (greedy best-first, O(live changes) memory, section 7.1).
"""

from repro.speculation.batching import (
    BatchPlan,
    bisect_halves,
    joint_success_probability,
    plan_batches,
)
from repro.speculation.engine import (
    ScoredBuild,
    SpeculationEngine,
    SpeculationEngineStats,
)
from repro.speculation.probability import (
    conditional_success,
    estimate_commit_probabilities,
    p_needed,
)
from repro.speculation.tree import SpeculationNode, SubsetEnumerator, enumerate_tree

__all__ = [
    "BatchPlan",
    "ScoredBuild",
    "SpeculationEngine",
    "SpeculationEngineStats",
    "SpeculationNode",
    "SubsetEnumerator",
    "bisect_halves",
    "conditional_success",
    "enumerate_tree",
    "estimate_commit_probabilities",
    "joint_success_probability",
    "plan_batches",
    "p_needed",
]
