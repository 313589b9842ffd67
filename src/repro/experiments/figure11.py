"""Figure 11: turnaround time normalized against Oracle.

The paper's nine heatmaps show P50/P95/P99 turnaround for SubmitQueue,
Speculate-all, and Optimistic, normalized against the Oracle run at the
same (changes/hour, workers) cell.  Expected shape: SubmitQueue within
~1.2–4× of Oracle (improving with workers), Speculate-all ~9–24× (barely
improving), Optimistic ~7–19× and *flat* in workers, Single-Queue off the
chart (~80–130×, reported in the text).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.changes.truth import potential_conflict
from repro.experiments.runner import (
    make_stream,
    oracle_ratios,
    run_cell,
    strategy_factories,
)
from repro.metrics.summary import RunSummary
from repro.predictor.predictors import Predictor
from repro.strategies.oracle import OracleStrategy

Cell = Tuple[float, int]  # (rate per hour, workers)


@dataclass
class Figure11Result:
    rates: List[float]
    workers: List[int]
    #: strategy name -> (rate, workers) -> normalized {p50,p95,p99,throughput}
    normalized: Dict[str, Dict[Cell, Dict[str, float]]]
    #: raw summaries including the Oracle baseline
    raw: Dict[str, Dict[Cell, RunSummary]]


def run(
    rates: Sequence[float] = (100, 300, 500),
    workers: Sequence[int] = (100, 300, 500),
    changes_per_cell: int = 400,
    strategies: Sequence[str] = ("SubmitQueue", "Speculate-all", "Optimistic"),
    predictor: Optional[Predictor] = None,
    seed: int = 1111,
) -> Figure11Result:
    """Sweep the (rate, workers) grid for the named strategies."""
    factories = strategy_factories(predictor)
    raw: Dict[str, Dict[Cell, RunSummary]] = {"Oracle": {}}
    for name in strategies:
        raw[name] = {}
    normalized: Dict[str, Dict[Cell, Dict[str, float]]] = {
        name: {} for name in strategies
    }
    for rate in rates:
        stream = make_stream(rate, changes_per_cell, seed=seed)
        for worker_count in workers:
            cell: Cell = (rate, worker_count)
            oracle = run_cell(
                OracleStrategy(), stream, worker_count, potential_conflict
            )
            raw["Oracle"][cell] = oracle
            for name in strategies:
                summary = run_cell(
                    factories[name](), stream, worker_count, potential_conflict
                )
                raw[name][cell] = summary
                normalized[name][cell] = oracle_ratios(summary, oracle)
    return Figure11Result(
        rates=list(rates),
        workers=list(workers),
        normalized=normalized,
        raw=raw,
    )


def format_result(result: Figure11Result, metric: str = "p50") -> str:
    """One shaded heatmap per strategy for the chosen percentile."""
    from repro.metrics.ascii_plot import heatmap

    blocks: List[str] = []
    extremes = [
        cells[cell][metric]
        for cells in result.normalized.values()
        for cell in cells
    ]
    high = max(extremes) if extremes else 1.0
    for name, cells in result.normalized.items():
        values = {
            (f"{rate:g}/h", f"w{workers}"): cells[(rate, workers)][metric]
            for rate in result.rates
            for workers in result.workers
        }
        blocks.append(
            heatmap(
                [f"{rate:g}/h" for rate in result.rates],
                [f"w{workers}" for workers in result.workers],
                values,
                title=f"Figure 11 ({metric.upper()}): {name} / Oracle",
                low=1.0,
                high=high,
            )
        )
    return "\n\n".join(blocks)
