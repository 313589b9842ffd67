"""Ablations of SubmitQueue's design choices (DESIGN.md section 5).

Not figures from the paper, but measurements of the individual techniques
it stacks:

* predictor quality — oracle vs. learned vs. static-0.5 probabilities;
* minimal-build-step elimination (section 6) on vs. off;
* batching (the section-2.2 alternative SubmitQueue rejects) across
  batch sizes.
"""

import pytest

from benchmarks.conftest import emit
from repro.changes.truth import potential_conflict
from repro.experiments.runner import format_table, make_stream, run_cell
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.strategies.batch import BatchStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy

RATE = 300
WORKERS = 200
CHANGES = 200

#: The module mints change ids from its own block, whatever ran before it.
pytestmark = pytest.mark.usefixtures("module_change_ids")


@pytest.fixture(scope="module")
def stream():
    return make_stream(RATE, CHANGES, seed=2024)


class TestPredictorQualityAblation:
    def test_better_predictions_mean_lower_turnaround(
        self, stream, trained_predictor
    ):
        learned, _ = trained_predictor
        rows = []
        p95 = {}
        for label, predictor in [
            ("oracle", OraclePredictor()),
            ("learned", learned),
            ("static 0.5", StaticPredictor(0.5, 0.5)),
        ]:
            result = run_cell(
                SubmitQueueStrategy(predictor), stream, WORKERS, potential_conflict
            )
            stats = result.turnaround
            p95[label] = stats["p95"]
            rows.append(
                [label, f"{stats['p50']:.0f}", f"{stats['p95']:.0f}",
                 str(result.builds_aborted),
                 f"{result.wasted_minutes:.0f}"]
            )
        emit(
            "ablation_predictor",
            format_table(
                ["predictor", "P50", "P95", "aborts", "wasted build-min"],
                rows,
                title="Ablation: predictor quality (SubmitQueue selection)",
            ),
        )
        assert p95["oracle"] <= p95["learned"] + 1e-9
        assert p95["learned"] <= p95["static 0.5"] * 1.1


class TestStepEliminationAblation:
    def test_elimination_reduces_build_minutes(self, stream):
        with_elim = run_cell(
            OracleStrategy(), stream, WORKERS, potential_conflict,
            step_elimination=True,
        )
        without = run_cell(
            OracleStrategy(), stream, WORKERS, potential_conflict,
            step_elimination=False,
        )
        emit(
            "ablation_step_elimination",
            format_table(
                ["mode", "total build-min", "P95 turnaround"],
                [
                    ["eliminate covered steps", f"{with_elim.build_minutes:.0f}",
                     f"{with_elim.turnaround['p95']:.0f}"],
                    ["re-run stacked steps", f"{without.build_minutes:.0f}",
                     f"{without.turnaround['p95']:.0f}"],
                ],
                title="Ablation: minimal-build-steps elimination (section 6)",
            ),
        )
        assert with_elim.build_minutes <= without.build_minutes
        assert with_elim.turnaround["p95"] <= without.turnaround["p95"] * 1.05


class TestBatchingAblation:
    @pytest.mark.parametrize("batch_size", [2, 8, 16])
    def test_batching_trades_latency_for_build_count(self, stream, batch_size):
        result = run_cell(
            BatchStrategy(batch_size=batch_size), stream, WORKERS,
            potential_conflict,
        )
        stats = result.turnaround
        # Batches land whole or bisect: everyone decided either way.
        assert result.committed + result.rejected == CHANGES
        # Record the tradeoff for the results file.
        emit(
            f"ablation_batch_{batch_size}",
            format_table(
                ["batch size", "P50", "P95", "builds", "throughput/h"],
                [[str(batch_size), f"{stats['p50']:.0f}", f"{stats['p95']:.0f}",
                  str(result.builds_finished),
                  f"{result.throughput_per_hour:.1f}"]],
                title="Ablation: Chromium-style batching",
            ),
        )

    def test_submitqueue_beats_batching(self, stream):
        batched = run_cell(
            BatchStrategy(batch_size=8), stream, WORKERS, potential_conflict
        )
        submitqueue = run_cell(
            SubmitQueueStrategy(OraclePredictor()), stream, WORKERS,
            potential_conflict,
        )
        assert (
            submitqueue.turnaround["p95"]
            < batched.turnaround["p95"]
        )


class TestRiskBatchingAblation:
    """Risk-aware batches vs Chromium-style batches vs plain SubmitQueue.

    Run at a worker count the arrival rate saturates, where plain
    SubmitQueue hits the figure-12 ceiling: risk batches must land more
    changes per hour with fewer builds while keeping the per-change
    shippable-commit guarantee the naive batching mode gives up.
    """

    SATURATED_WORKERS = 16

    def test_risk_batching_beats_plain_under_saturation(self, stream):
        from repro.strategies.risk_batch import RiskBatchStrategy

        plain = run_cell(
            SubmitQueueStrategy(OraclePredictor()), stream,
            self.SATURATED_WORKERS, potential_conflict,
        )
        naive = run_cell(
            BatchStrategy(batch_size=8), stream, self.SATURATED_WORKERS,
            potential_conflict,
        )
        risk_strategy = RiskBatchStrategy(
            OraclePredictor(), batch_size=8, min_joint_success=0.3
        )
        risk = run_cell(
            risk_strategy, stream, self.SATURATED_WORKERS, potential_conflict
        )
        rows = []
        for label, result in [
            ("plain SubmitQueue", plain),
            ("naive batch(8)", naive),
            ("risk batch(8)", risk),
        ]:
            stats = result.turnaround
            rows.append(
                [label, f"{result.throughput_per_hour:.1f}",
                 str(result.builds_finished),
                 str(result.committed),
                 f"{stats['p95']:.0f}"]
            )
        emit(
            "ablation_risk_batching",
            format_table(
                ["mode", "throughput/h", "builds", "commits",
                 "P95 turnaround"],
                rows,
                title=(
                    f"Ablation: risk-aware batching "
                    f"({self.SATURATED_WORKERS} workers, saturated)"
                ),
            ),
        )
        # Every change still gets an individual decision (no shippable-batch
        # semantics), and batching must not lose commits.
        assert risk.committed + risk.rejected == CHANGES
        assert risk.committed >= plain.committed - 2
        # The win: fewer builds, more changes landed per simulated hour.
        assert risk.builds_finished < plain.builds_finished
        assert risk.throughput_per_hour > plain.throughput_per_hour
        assert risk_strategy.batch_stats.batches_landed > 0


class TestFutureWorkAblations:
    """Section 10's refinements, measured (implemented in this repo)."""

    def test_preemption_grace_reduces_waste(self, stream, trained_predictor):
        learned, _ = trained_predictor
        from repro.planner.planner import PlannerEngine
        from repro.planner.workers import WorkerPool
        from repro.planner.controller import LabelBuildController
        from repro.sim.simulator import Simulation

        def run_with_grace(grace):
            simulation = Simulation(
                strategy=SubmitQueueStrategy(learned),
                controller=LabelBuildController(),
                workers=WORKERS,
                conflict_predicate=potential_conflict,
            )
            simulation.planner.preemption_grace = grace
            return simulation.run(list(stream))

        without = run_with_grace(0.0)
        with_grace = run_with_grace(10.0)
        emit(
            "ablation_preemption",
            format_table(
                ["grace (min)", "aborted builds", "wasted build-min",
                 "P95 turnaround"],
                [
                    ["0", str(without.builds_aborted),
                     f"{without.wasted_minutes:.0f}",
                     f"{without.turnaround['p95']:.0f}"],
                    ["10", str(with_grace.builds_aborted),
                     f"{with_grace.wasted_minutes:.0f}",
                     f"{with_grace.turnaround['p95']:.0f}"],
                ],
                title="Ablation: build-preemption grace (section 10)",
            ),
        )
        assert with_grace.wasted_minutes <= without.wasted_minutes

    def test_reordering_rescues_changes_behind_doomed_ones(self, stream):
        from repro.predictor.predictors import OraclePredictor
        from repro.strategies.reordering import ReorderingSubmitQueueStrategy

        plain = run_cell(
            SubmitQueueStrategy(OraclePredictor()), stream, WORKERS,
            potential_conflict,
        )
        reordered = run_cell(
            ReorderingSubmitQueueStrategy(OraclePredictor()), stream, WORKERS,
            potential_conflict,
        )
        plain_stats = plain.turnaround
        reordered_stats = reordered.turnaround
        emit(
            "ablation_reordering",
            format_table(
                ["mode", "P50", "P95", "commits"],
                [
                    ["submission order", f"{plain_stats['p50']:.0f}",
                     f"{plain_stats['p95']:.0f}", str(plain.committed)],
                    ["doomed-jump reordering", f"{reordered_stats['p50']:.0f}",
                     f"{reordered_stats['p95']:.0f}",
                     str(reordered.committed)],
                ],
                title="Ablation: change reordering (section 10)",
            ),
        )
        # Reordering must never lose commits, and should not hurt the tail.
        assert reordered.committed >= plain.committed - 1
        assert reordered_stats["p95"] <= plain_stats["p95"] * 1.1

    def test_independent_batching_saves_builds(self, stream):
        from repro.predictor.predictors import OraclePredictor
        from repro.strategies.independent_batch import IndependentBatchStrategy

        plain = run_cell(
            SubmitQueueStrategy(OraclePredictor()), stream, WORKERS,
            potential_conflict,
        )
        batched = run_cell(
            IndependentBatchStrategy(OraclePredictor(), batch_size=4),
            stream, WORKERS, potential_conflict,
        )
        emit(
            "ablation_independent_batching",
            format_table(
                ["mode", "builds completed", "commits", "P95 turnaround"],
                [
                    ["separate builds", str(plain.builds_finished),
                     str(plain.committed),
                     f"{plain.turnaround['p95']:.0f}"],
                    ["batched independents", str(batched.builds_finished),
                     str(batched.committed),
                     f"{batched.turnaround['p95']:.0f}"],
                ],
                title="Ablation: batching independent changes (section 10)",
            ),
        )
        assert batched.builds_finished < plain.builds_finished
        assert batched.committed >= plain.committed - 3


def test_benchmark_plan_epoch(benchmark, trained_predictor):
    """Microbenchmark: one planner epoch over a loaded queue."""
    from repro.planner.controller import LabelBuildController
    from repro.planner.planner import PlannerEngine
    from repro.planner.workers import WorkerPool

    learned, _ = trained_predictor
    stream = make_stream(RATE, 150, seed=9)
    planner = PlannerEngine(
        strategy=SubmitQueueStrategy(learned),
        controller=LabelBuildController(),
        workers=WorkerPool(200),
        conflict_predicate=potential_conflict,
    )
    for time, change in stream:
        planner.submit(change, time)

    def one_epoch():
        result = planner.plan(0.0)
        # Abort everything so the next iteration replans from scratch
        # (planner._abort keys stay restartable and unindexed twice).
        for key in planner.workers.running_builds():
            planner._abort(key, 0.0)
        return len(result.started)

    benchmark(one_epoch)
