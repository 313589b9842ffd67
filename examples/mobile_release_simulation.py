#!/usr/bin/env python3
"""Mobile-release crunch: SubmitQueue vs. the baselines under load.

Recreates the paper's motivating scenario (section 1): hundreds of
changes land in a short window before a mobile release.  We replay the
same synthetic iOS-profile change stream through SubmitQueue, the Oracle,
Speculate-all, Optimistic (Zuul-style), and Single-Queue (Bors-style),
and print turnaround percentiles and throughput, normalized against the
Oracle — a miniature of Figures 11 and 12.

Run:  python examples/mobile_release_simulation.py [--changes N]
"""

import argparse
from dataclasses import replace

from repro.changes.truth import potential_conflict
from repro.experiments.runner import format_table
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor
from repro.sim.simulator import Simulation
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.single_queue import SingleQueueStrategy
from repro.strategies.speculate_all import SpeculateAllStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import IOS_WORKLOAD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--changes", type=int, default=300)
    parser.add_argument("--rate", type=float, default=300.0,
                        help="changes per hour")
    parser.add_argument("--workers", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=args.seed))
    stream = generator.stream(args.rate, args.changes)
    print(
        f"release crunch: {args.changes} changes at {args.rate:g}/hour, "
        f"{args.workers} workers\n"
    )

    strategies = [
        OracleStrategy(),
        SubmitQueueStrategy(OraclePredictor()),
        SpeculateAllStrategy(),
        OptimisticStrategy(),
        SingleQueueStrategy(),
    ]
    rows = []
    oracle_summary = None
    for strategy in strategies:
        simulation = Simulation(
            strategy=strategy,
            controller=LabelBuildController(),
            workers=args.workers,
            conflict_predicate=potential_conflict,
        )
        result = simulation.run(list(stream))
        stats = result.turnaround
        if oracle_summary is None:
            oracle_summary = stats
        rows.append(
            [
                strategy.name,
                f"{stats['p50']:.0f}",
                f"{stats['p95']:.0f}",
                f"{stats['p50'] / oracle_summary['p50']:.2f}x",
                f"{stats['p95'] / oracle_summary['p95']:.2f}x",
                f"{result.throughput_per_hour:.0f}/h",
                f"{result.committed}/{result.submitted}",
                str(result.builds_aborted),
            ]
        )
    print(
        format_table(
            ["strategy", "P50 (min)", "P95 (min)", "P50 vs Oracle",
             "P95 vs Oracle", "throughput", "landed", "aborted builds"],
            rows,
            title="Turnaround and throughput (same change stream for all)",
        )
    )
    print(
        "\nReading: SubmitQueue tracks the Oracle; Speculate-all burns its "
        "budget on the exponential frontier; Optimistic restarts its tail "
        "on every rejection; Single-Queue serializes everything."
    )


if __name__ == "__main__":
    main()
