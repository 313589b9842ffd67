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
  (greedy best-first, O(live changes) memory, section 7.1) and returns
  the selected nodes, each a build key and its value ``P_needed``;
* :mod:`repro.speculation.batching` — the risk-batching strategy's
  greedy grouping (each batch is its member ids in submission order) and
  its bisection split.
"""

from repro.speculation.batching import (
    bisect_halves,
    joint_success_probability,
    plan_batches,
)
from repro.speculation.engine import SpeculationEngine, SpeculationEngineStats
from repro.speculation.probability import estimate_commit_probabilities, p_needed
from repro.speculation.tree import SpeculationNode, SubsetEnumerator, enumerate_tree

__all__ = [
    "SpeculationEngine",
    "SpeculationEngineStats",
    "SpeculationNode",
    "SubsetEnumerator",
    "bisect_halves",
    "enumerate_tree",
    "estimate_commit_probabilities",
    "joint_success_probability",
    "plan_batches",
    "p_needed",
]
