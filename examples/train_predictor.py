#!/usr/bin/env python3
"""Train SubmitQueue's prediction models and measure what they buy.

Reproduces section 7.2's pipeline: generate historical changes, extract
change/revision/developer/speculation features, train the success and
conflict logistic-regression models on a 70/30 split, run recursive
feature elimination, and report accuracy and the strongest features.
Then replays the same change stream through SubmitQueue three times —
with the learned predictor, with a naive static predictor, and with the
Oracle — to show where learned speculation lands between them.

Run:  python examples/train_predictor.py
"""

from dataclasses import replace

from repro.changes.truth import potential_conflict
from repro.experiments.runner import format_table
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.predictor.training import train_models
from repro.sim.simulator import Simulation
from repro.strategies.oracle import OracleStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import IOS_WORKLOAD


def main() -> None:
    # 1. Nine months of history, compressed: label-mode changes with the
    #    correlated features of section 7.2.
    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=1234))
    history = generator.history(5000)
    print(f"training on {len(history)} historical changes (70/30 split)...")
    predictor, report = train_models(history, train_fraction=0.7, seed=7)

    print(
        format_table(
            ["model", "accuracy", "AUC", "positive rate"],
            [
                ["success", f"{report.success_metrics.accuracy:.3f}",
                 f"{report.success_metrics.auc:.3f}",
                 f"{report.success_metrics.positive_rate:.3f}"],
                ["conflict", f"{report.conflict_metrics.accuracy:.3f}",
                 f"{report.conflict_metrics.auc:.3f}",
                 f"{report.conflict_metrics.positive_rate:.3f}"],
            ],
            title="\nvalidation metrics (paper reports ~97% accuracy)",
        )
    )
    print("\nstrongest positive features:", ", ".join(report.top_success_features(3)))
    print("strongest negative features:", ", ".join(report.bottom_success_features(2)))

    # 2. Same stream, three predictors.
    stream = generator.stream(300.0, 250)
    rows = []
    oracle_stats = None
    for label, strategy in [
        ("Oracle", OracleStrategy()),
        ("SubmitQueue (learned)", SubmitQueueStrategy(predictor)),
        ("SubmitQueue (static 0.5)", SubmitQueueStrategy(StaticPredictor(0.5, 0.5))),
    ]:
        result = Simulation(
            strategy=strategy,
            controller=LabelBuildController(),
            workers=200,
            conflict_predicate=potential_conflict,
        ).run(list(stream))
        stats = result.turnaround
        if oracle_stats is None:
            oracle_stats = stats
        rows.append(
            [label, f"{stats['p50']:.0f}", f"{stats['p95']:.0f}",
             f"{stats['p50'] / oracle_stats['p50']:.2f}x",
             str(result.builds_aborted)]
        )
    print(
        format_table(
            ["predictor", "P50 (min)", "P95 (min)", "P50 vs Oracle", "aborts"],
            rows,
            title="\nsame 250-change stream, 200 workers",
        )
    )


if __name__ == "__main__":
    main()
