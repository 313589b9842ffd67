"""Figure 13: P95 turnaround improvement from the conflict analyzer.

Each strategy runs twice on the same stream: once with the conflict
analyzer (pairwise affected-target overlap) and once without it (every
pair of pending changes assumed conflicting, i.e. the single deep
speculation tree of section 4).  Improvement is
``1 - t_with / t_without``.  Expected shape: Oracle improves up to ~60 %,
SubmitQueue and Speculate-all substantially, Optimistic only ~20 % and
flat in workers, Single-Queue flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.changes.truth import potential_conflict
from repro.experiments.runner import (
    all_conflict,
    format_table,
    make_stream,
    run_cell,
    strategy_factories,
)
from repro.predictor.predictors import Predictor
from repro.strategies.oracle import OracleStrategy

Cell = Tuple[float, int]


@dataclass
class Figure13Result:
    rates: List[float]
    workers: List[int]
    #: strategy -> (rate, workers) -> P95 improvement in [0, 1)
    improvement: Dict[str, Dict[Cell, float]]


def run(
    rates: Sequence[float] = (300,),
    workers: Sequence[int] = (100, 300, 500),
    changes_per_cell: int = 350,
    strategies: Sequence[str] = (
        "SubmitQueue",
        "Speculate-all",
        "Optimistic",
        "Single-Queue",
    ),
    predictor: Optional[Predictor] = None,
    seed: int = 1313,
) -> Figure13Result:
    factories = dict(strategy_factories(predictor))
    factories["Oracle"] = OracleStrategy
    names = ["Oracle"] + [n for n in strategies]
    improvement: Dict[str, Dict[Cell, float]] = {name: {} for name in names}
    for rate in rates:
        stream = make_stream(rate, changes_per_cell, seed=seed)
        for worker_count in workers:
            cell: Cell = (rate, worker_count)
            for name in names:
                on = run_cell(
                    factories[name](), stream, worker_count, potential_conflict
                ).turnaround["p95"]
                off = run_cell(
                    factories[name](), stream, worker_count, all_conflict
                ).turnaround["p95"]
                improvement[name][cell] = 1.0 - on / off if off > 0 else 0.0
    return Figure13Result(
        rates=list(rates), workers=list(workers), improvement=improvement
    )


def format_result(result: Figure13Result) -> str:
    blocks: List[str] = []
    for rate in result.rates:
        rows = []
        for name, cells in result.improvement.items():
            row: List[object] = [name]
            for worker_count in result.workers:
                row.append(f"{cells[(rate, worker_count)]:+.2f}")
            rows.append(row)
        headers = ["strategy \\ workers"] + [str(w) for w in result.workers]
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    "Figure 13: P95 turnaround improvement from the conflict "
                    f"analyzer @ {rate:g} changes/h"
                ),
            )
        )
    return "\n\n".join(blocks)
