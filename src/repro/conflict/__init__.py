"""Conflict analysis (paper section 5).

Decides which pending changes are *independent* — they may build and
commit in parallel — and which potentially conflict, using build-target
hashes rather than file diffs.  Three layers:

* :mod:`repro.conflict.union_graph` — the union-graph algorithm (Steps
  1–4) that detects interaction through the dependency structure with only
  three build graphs instead of four.
* :mod:`repro.conflict.analyzer` — the analyzer with its caches and the
  "build graph unchanged" fast path, plus the exact Equation-6 check.
* :mod:`repro.conflict.conflict_graph` — the conflict graph over pending
  changes consumed by the speculation engine.
"""

from repro.conflict.analyzer import ConflictAnalyzer, ConflictAnalyzerStats
from repro.conflict.conflict_graph import ConflictGraph
from repro.conflict.union_graph import UnionGraph, union_graph_conflict

__all__ = [
    "ConflictAnalyzer",
    "ConflictAnalyzerStats",
    "ConflictGraph",
    "UnionGraph",
    "union_graph_conflict",
]
