"""Section 8.4's closing prediction: wider build graphs benefit more.

"Therefore, we expect substantially better improvements when using the
conflict analyzer for repositories that have a wider build graph."

The paper could only measure its deep iOS repo; this experiment runs the
same analyzer-on/analyzer-off comparison on both workload profiles — the
deep iOS-like graph (dense potential conflicts through shared hubs) and
the wide backend-like graph (sparse conflicts) — and reports the P95
improvement per profile.  The backend profile should gain at least as
much, with more parallel commits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.changes.truth import potential_conflict
from repro.experiments.runner import all_conflict, format_table, run_cell
from repro.strategies.oracle import OracleStrategy
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import BACKEND_WORKLOAD, IOS_WORKLOAD


@dataclass
class WideVsDeepResult:
    improvement: Dict[str, float]        # profile -> P95 improvement
    #: Mean number of concurrently-pending conflicting predecessors per
    #: change — the serialization constraint the analyzer discovers.
    mean_conflicting_ancestors: Dict[str, float]
    p95_with: Dict[str, float]
    p95_without: Dict[str, float]


def run(
    rate_per_hour: float = 300.0,
    changes: int = 220,
    workers: int = 300,
    seed: int = 8484,
) -> WideVsDeepResult:
    improvement: Dict[str, float] = {}
    ancestors_mean: Dict[str, float] = {}
    p95_with: Dict[str, float] = {}
    p95_without: Dict[str, float] = {}
    for name, config in (("deep (iOS)", IOS_WORKLOAD),
                         ("wide (backend)", BACKEND_WORKLOAD)):
        generator = WorkloadGenerator(replace(config, seed=seed))
        stream = generator.stream(rate_per_hour, changes)
        on = run_cell(
            OracleStrategy(), stream, workers, potential_conflict
        ).turnaround["p95"]
        off = run_cell(OracleStrategy(), stream, workers, all_conflict).turnaround[
            "p95"
        ]
        improvement[name] = 1.0 - on / off if off > 0 else 0.0
        p95_with[name] = on
        p95_without[name] = off
        # The serialization constraint the analyzer finds: how many
        # near-in-time predecessors each change potentially conflicts with
        # (window ~ one build duration's worth of arrivals).
        window = max(1, int(rate_per_hour))  # ~60 minutes of arrivals
        changes_only = [change for _, change in stream]
        total_edges = 0
        for index, change in enumerate(changes_only):
            for other in changes_only[max(0, index - window) : index]:
                if potential_conflict(change, other):
                    total_edges += 1
        ancestors_mean[name] = total_edges / len(changes_only)
    return WideVsDeepResult(
        improvement=improvement,
        mean_conflicting_ancestors=ancestors_mean,
        p95_with=p95_with,
        p95_without=p95_without,
    )


def format_result(result: WideVsDeepResult) -> str:
    rows = []
    for name in result.improvement:
        rows.append(
            [
                name,
                f"{result.p95_with[name]:.0f}",
                f"{result.p95_without[name]:.0f}",
                f"{result.improvement[name]:+.2f}",
                f"{result.mean_conflicting_ancestors[name]:.2f}",
            ]
        )
    return format_table(
        ["profile", "P95 with analyzer", "P95 without", "improvement",
         "mean conflicting predecessors"],
        rows,
        title=(
            "Section 8.4 extension: conflict-analyzer benefit, deep vs. "
            "wide build graphs (Oracle strategy)"
        ),
    )
