"""Figure 12: average throughput normalized against Oracle.

Three panels (300/400/500 changes per hour) of throughput-vs-workers for
every approach.  Expected shape: SubmitQueue closest to Oracle (within
~20 % at 500 workers), Speculate-all below it and insensitive to worker
count on deep graphs, Optimistic below Speculate-all and *flat* (its
throughput is bounded by the run of consecutive successes, not by
machines), Single-Queue worst (~95 % slowdown).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.changes.truth import potential_conflict
from repro.experiments.runner import (
    format_table,
    make_stream,
    run_cell,
    strategy_factories,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.predictor.predictors import Predictor
from repro.strategies.oracle import OracleStrategy

Cell = Tuple[float, int]


@dataclass
class Figure12Result:
    rates: List[float]
    workers: List[int]
    #: strategy -> (rate, workers) -> throughput / oracle throughput
    normalized_throughput: Dict[str, Dict[Cell, float]]


def run(
    rates: Sequence[float] = (300, 400, 500),
    workers: Sequence[int] = (100, 300, 500),
    changes_per_cell: int = 400,
    strategies: Sequence[str] = (
        "SubmitQueue",
        "Speculate-all",
        "Optimistic",
        "Single-Queue",
    ),
    predictor: Optional[Predictor] = None,
    seed: int = 1212,
    recorder: Recorder = NULL_RECORDER,
    trace_strategy: str = "SubmitQueue",
) -> Figure12Result:
    """``recorder``: when enabled, the *first* ``trace_strategy`` cell of
    the sweep (lowest rate, fewest workers) runs instrumented, so one
    representative run can be inspected without tracing the whole grid."""
    factories = strategy_factories(predictor)
    normalized: Dict[str, Dict[Cell, float]] = {name: {} for name in strategies}
    trace_pending = recorder.enabled
    for rate in rates:
        stream = make_stream(rate, changes_per_cell, seed=seed)
        for worker_count in workers:
            cell: Cell = (rate, worker_count)
            oracle = run_cell(
                OracleStrategy(), stream, worker_count, potential_conflict
            ).throughput_per_hour
            for name in strategies:
                cell_recorder = NULL_RECORDER
                if trace_pending and name == trace_strategy:
                    cell_recorder = recorder
                    trace_pending = False
                throughput = run_cell(
                    factories[name](),
                    stream,
                    worker_count,
                    potential_conflict,
                    recorder=cell_recorder,
                ).throughput_per_hour
                normalized[name][cell] = throughput / oracle if oracle > 0 else 0.0
    return Figure12Result(
        rates=list(rates), workers=list(workers), normalized_throughput=normalized
    )


def format_result(result: Figure12Result) -> str:
    blocks: List[str] = []
    for rate in result.rates:
        rows = []
        for name, cells in result.normalized_throughput.items():
            row: List[object] = [name]
            for worker_count in result.workers:
                row.append(f"{cells[(rate, worker_count)]:.2f}")
            rows.append(row)
        headers = ["strategy \\ workers"] + [str(w) for w in result.workers]
        blocks.append(
            format_table(
                headers,
                rows,
                title=f"Figure 12: normalized throughput @ {rate:g} changes/h",
            )
        )
    return "\n\n".join(blocks)
