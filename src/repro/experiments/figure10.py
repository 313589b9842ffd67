"""Figure 10: CDF of Oracle turnaround time at 100–500 changes/hour.

The paper runs the Oracle with 2000 workers (no resource contention) at
each ingestion rate; the turnaround CDFs then isolate the *serialization
cost* of conflicting changes — the gap between Figure 9 (pure build time)
and Figure 10 is the queueing imposed by ordering conflicting commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.changes.truth import potential_conflict
from repro.experiments.runner import make_stream, run_cell
from repro.metrics.cdf import Cdf
from repro.strategies.oracle import OracleStrategy


@dataclass
class Figure10Result:
    rates: List[float]
    grid_minutes: List[float]
    cdf_by_rate: Dict[float, List[float]]
    p50_by_rate: Dict[float, float]
    p99_by_rate: Dict[float, float]


def run(
    rates: Sequence[float] = (100, 200, 300, 400, 500),
    changes_per_rate: int = 400,
    workers: int = 2000,
    grid_minutes: Sequence[float] = (15, 30, 45, 60, 90, 120),
    seed: int = 1010,
) -> Figure10Result:
    cdf_by_rate: Dict[float, List[float]] = {}
    p50: Dict[float, float] = {}
    p99: Dict[float, float] = {}
    for rate in rates:
        stream = make_stream(rate, changes_per_rate, seed=seed)
        result = run_cell(OracleStrategy(), stream, workers, potential_conflict)
        cdf = Cdf(result.turnarounds)
        cdf_by_rate[rate] = cdf.series(grid_minutes)
        p50[rate] = cdf.quantile(0.5)
        p99[rate] = cdf.quantile(0.99)
    return Figure10Result(
        rates=list(rates),
        grid_minutes=list(grid_minutes),
        cdf_by_rate=cdf_by_rate,
        p50_by_rate=p50,
        p99_by_rate=p99,
    )


def format_result(result: Figure10Result) -> str:
    from repro.experiments.runner import format_table

    headers = ["minutes"] + [f"{rate:g}/h" for rate in result.rates]
    rows = []
    for index, minutes in enumerate(result.grid_minutes):
        row = [f"{minutes:g}"]
        for rate in result.rates:
            row.append(f"{result.cdf_by_rate[rate][index]:.3f}")
        rows.append(row)
    from repro.metrics.ascii_plot import line_plot

    footer = "  ".join(
        f"P50@{rate:g}/h={result.p50_by_rate[rate]:.0f}min" for rate in result.rates
    )
    plot = line_plot(
        {
            f"{rate:g}/h": list(zip(result.grid_minutes, result.cdf_by_rate[rate]))
            for rate in result.rates
        },
        width=56,
        height=12,
        x_label="turnaround (minutes)",
        y_label="CDF",
    )
    return (
        format_table(headers, rows, title="Figure 10: Oracle turnaround CDF (2000 workers)")
        + "\n"
        + footer
        + "\n\n"
        + plot
    )
