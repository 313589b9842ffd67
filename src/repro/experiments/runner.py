"""Shared experiment plumbing: strategy runs, sweeps, and table rendering.

Every simulation-based figure goes through :func:`run_cell`, which builds
a fresh strategy + simulation for one (rate, workers) cell and replays the
*same* pre-generated stream, so cross-strategy comparisons and Oracle
normalization see identical ground truth (the paper's methodology in
section 8.1).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.changes.change import Change
from repro.changes.truth import potential_conflict
from repro.metrics.summary import RunSummary
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor, Predictor
from repro.sim.simulator import Simulation
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
) -> RunSummary:
    """Run one strategy over one stream on one worker count."""
    simulation = Simulation(
        strategy=strategy,
        controller=LabelBuildController(step_elimination=step_elimination),
        workers=workers,
        conflict_predicate=conflict_predicate,
        recorder=recorder,
    )
    return simulation.run(list(stream))


def oracle_ratios(summary: RunSummary, oracle: RunSummary) -> Dict[str, float]:
    """P50/P95/P99 turnaround and throughput of ``summary`` over the
    Oracle run's on the same stream (``inf`` where the Oracle's is 0)."""

    def ratio(mine: float, base: float) -> float:
        return mine / base if base > 0 else float("inf")

    mine, base = summary.turnaround, oracle.turnaround
    return {
        "p50": ratio(mine["p50"], base["p50"]),
        "p95": ratio(mine["p95"], base["p95"]),
        "p99": ratio(mine["p99"], base["p99"]),
        "throughput": ratio(
            summary.throughput_per_hour, oracle.throughput_per_hour
        ),
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
