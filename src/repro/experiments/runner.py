"""Shared experiment plumbing: strategy runs, sweeps, and table rendering.

Every simulation-based figure goes through :func:`run_cell`, which builds
a fresh strategy + simulation for one (rate, workers) cell and replays the
*same* pre-generated stream, so cross-strategy comparisons and Oracle
normalization see identical ground truth (the paper's methodology in
section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.changes.change import Change
from repro.changes.truth import potential_conflict
from repro.metrics.percentile import summarize
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor, Predictor
from repro.sim.simulator import Simulation, SimulationResult
from repro.strategies.base import Strategy
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.single_queue import SingleQueueStrategy
from repro.strategies.speculate_all import SpeculateAllStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.scenarios import IOS_WORKLOAD

#: Conflict predicate for "conflict analyzer disabled" runs: every pair of
#: pending changes is assumed conflicting, collapsing the speculation
#: graph back to the single deep tree of section 4.
def all_conflict(first: Change, second: Change) -> bool:
    return first.change_id != second.change_id


#: The strategies Figure 11/12 compare, by name.
def strategy_factories(
    predictor: Optional[Predictor] = None,
) -> Dict[str, Callable[[], Strategy]]:
    """Fresh-strategy factories (strategies hold per-run state)."""
    spec_predictor = predictor if predictor is not None else OraclePredictor()
    return {
        "SubmitQueue": lambda: SubmitQueueStrategy(spec_predictor),
        "Speculate-all": SpeculateAllStrategy,
        "Optimistic": OptimisticStrategy,
        "Single-Queue": SingleQueueStrategy,
    }


def make_stream(
    rate_per_hour: float,
    count: int,
    config: WorkloadConfig = IOS_WORKLOAD,
    seed: int = 11,
) -> List[Tuple[float, Change]]:
    """A reproducible timed change stream for one sweep cell."""
    generator = WorkloadGenerator(replace(config, seed=seed))
    return generator.stream(rate_per_hour, count)


def run_cell(
    strategy: Strategy,
    stream: Sequence[Tuple[float, Change]],
    workers: int,
    conflict_predicate: Callable[[Change, Change], bool] = potential_conflict,
    step_elimination: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> SimulationResult:
    """Run one strategy over one stream on one worker count."""
    simulation = Simulation(
        strategy=strategy,
        controller=LabelBuildController(step_elimination=step_elimination),
        workers=workers,
        conflict_predicate=conflict_predicate,
        recorder=recorder,
    )
    return simulation.run(list(stream))


@dataclass
class CellSummary:
    """Turnaround/throughput summary for one (strategy, rate, workers)."""

    strategy: str
    rate: float
    workers: int
    p50: float
    p95: float
    p99: float
    throughput: float
    committed: int
    submitted: int
    aborted_builds: int

    @classmethod
    def from_result(
        cls, result: SimulationResult, rate: float
    ) -> "CellSummary":
        stats = summarize(result.turnaround_values())
        return cls(
            strategy=result.strategy_name,
            rate=rate,
            workers=result.workers,
            p50=stats["p50"],
            p95=stats["p95"],
            p99=stats["p99"],
            throughput=result.throughput_per_hour,
            committed=result.changes_committed,
            submitted=result.changes_submitted,
            aborted_builds=result.builds_aborted,
        )

    def normalized(self, oracle: "CellSummary") -> Dict[str, float]:
        """P50/P95/P99 and throughput ratios against the Oracle cell."""
        def ratio(mine: float, base: float) -> float:
            return mine / base if base > 0 else float("inf")

        return {
            "p50": ratio(self.p50, oracle.p50),
            "p95": ratio(self.p95, oracle.p95),
            "p99": ratio(self.p99, oracle.p99),
            "throughput": ratio(self.throughput, oracle.throughput),
        }


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Plain-text aligned table (what the benchmark harness prints)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
