"""Risk-aware batching throughput: changes/hour at the figure-12 high-load rate.

Drives the figure-12 simulation cell (500 changes/hour, the paper's
highest arrival rate) across a worker sweep, once with plain SubmitQueue
and once with :class:`~repro.strategies.risk_batch.RiskBatchStrategy` on
the same pre-generated stream.  At low worker counts the pool saturates
and plain SubmitQueue flat-lines (one speculation path per change — the
Figure 12 ceiling); risk batches pack jointly-low-risk changes into one
build and land them together, so the same pool decides more changes per
hour.  Acceptance at the high-load cell (fewest workers): >= 1.5x
changes/hour, the *same* commit set, and zero red commits — every landed
change must keep the mainline green when replayed over the ground truth,
which is what separates this from Chromium-style shippable-batch modes.

A service-path smoke variant always runs (and is the CI gate): a
``CoreService`` cell with batching on must land every change of a clean
cell on a green mainline, as plain SubmitQueue does; every datapoint
lands in ``benchmarks/results/BENCH_batch.json``.
"""

import os

import pytest

from benchmarks.conftest import emit, record_bench
from repro.changes.truth import build_outcome, potential_conflict
from repro.experiments.runner import format_table, make_stream
from repro.parallel import workload
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor
from repro.sim.simulator import Simulation
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.repo_synth import MonorepoSpec

#: The figure-12 high-load arrival rate (changes per hour).
HIGH_LOAD_RATE = 500
#: Stream length for each sweep cell.
CELL_CHANGES = 300
#: Worker sweep: the first entry is the high-load acceptance cell.
WORKER_SWEEP = (8, 16, 32)
#: Acceptance floor at the high-load cell: batching vs plain SubmitQueue.
SPEEDUP_FLOOR = 1.5
#: Batch-formation knobs used for the curve (documented in the table).
BATCH_SIZE = 16
MIN_JOINT_SUCCESS = 0.3

_SMOKE_ONLY = os.environ.get("BATCH_BENCH_SMOKE") == "1"

#: The module mints change ids from its own block, whatever ran before it.
pytestmark = pytest.mark.usefixtures("module_change_ids")


def _red_commits(decisions, stream):
    """Committed changes that would have broken the mainline.

    Replays the commit sequence over the ground-truth labels: change ``c``
    is a red commit unless it is individually OK and free of real
    conflicts with every *co-pending* change committed before it — the
    per-change shippable-commit guarantee.  Label-mode ground truth only
    models conflicts between changes racing through the queue together
    (a change submitted after its partner landed was authored against a
    mainline that already contained it), so pairs that were never
    co-pending are out of scope for every strategy.
    """
    changes_by_id = {change.change_id: change for _, change in stream}
    submitted_at = {change.change_id: at for at, change in stream}
    landed = []  # (change, decided_at)
    red = []
    for decision in sorted(
        (d for d in decisions if d.committed), key=lambda d: d.at
    ):
        change = changes_by_id[decision.change_id]
        co_pending = [
            other
            for other, decided_at in landed
            if decided_at > submitted_at[change.change_id]
        ]
        if not build_outcome(change, co_pending):
            red.append(change.change_id)
        landed.append((change, decision.at))
    return red


def _run(strategy, stream, workers):
    """One cell: its run summary and its decision log."""
    simulation = Simulation(
        strategy=strategy,
        controller=LabelBuildController(),
        workers=workers,
        conflict_predicate=potential_conflict,
    )
    return simulation.run(list(stream)), simulation.planner.decisions()


def _run_pair(stream, workers):
    plain = _run(SubmitQueueStrategy(OraclePredictor()), stream, workers)
    strategy = RiskBatchStrategy(
        OraclePredictor(),
        batch_size=BATCH_SIZE,
        min_joint_success=MIN_JOINT_SUCCESS,
    )
    batched = _run(strategy, stream, workers)
    return plain, batched, strategy.batch_stats


@pytest.mark.skipif(
    _SMOKE_ONLY, reason="BATCH_BENCH_SMOKE=1 runs only the smoke cell"
)
def test_batch_throughput_figure12_highload():
    """Acceptance: >= 1.5x changes/hour at the high-load cell, zero red."""
    stream = make_stream(HIGH_LOAD_RATE, CELL_CHANGES, seed=1212)
    rows = []
    speedups = {}
    for workers in WORKER_SWEEP:
        (plain, plain_log), (batched, batched_log), stats = _run_pair(
            stream, workers
        )
        speedup = (
            batched.throughput_per_hour / plain.throughput_per_hour
            if plain.throughput_per_hour > 0
            else 0.0
        )
        speedups[workers] = speedup

        # Real-conflict pairs land first-wins, and landing *order* differs
        # between the modes, so commit-set membership may swap within a
        # conflicting pair — but the landed count must agree and neither
        # mode may ship a red commit.
        assert abs(batched.committed - plain.committed) <= 2
        assert _red_commits(batched_log, stream) == []
        assert _red_commits(plain_log, stream) == []

        rows.append(
            (
                workers,
                f"{plain.throughput_per_hour:.1f}",
                f"{batched.throughput_per_hour:.1f}",
                f"{speedup:.2f}x",
                stats.batches_landed,
                stats.members_committed,
                stats.bisections,
            )
        )
        record_bench(
            "batch",
            f"figure12_rate{HIGH_LOAD_RATE}_w{workers}",
            {
                "workers": workers,
                "rate_per_hour": HIGH_LOAD_RATE,
                "plain_changes_per_hour": round(plain.throughput_per_hour, 3),
                "batched_changes_per_hour": round(
                    batched.throughput_per_hour, 3
                ),
                "speedup": round(speedup, 3),
                "batches_landed": stats.batches_landed,
                "members_committed": stats.members_committed,
                "bisections": stats.bisections,
                "red_commits": 0,
            },
        )
    record_bench(
        "batch",
        "figure12_highload_speedup",
        {
            "workers": WORKER_SWEEP[0],
            "rate_per_hour": HIGH_LOAD_RATE,
            "speedup": round(speedups[WORKER_SWEEP[0]], 3),
            "floor": SPEEDUP_FLOOR,
        },
    )
    emit(
        "batch_throughput",
        format_table(
            (
                "workers",
                "plain c/h",
                "batched c/h",
                "speedup",
                "batches",
                "members",
                "bisections",
            ),
            rows,
            title=(
                f"risk-aware batching @ {HIGH_LOAD_RATE} changes/h "
                f"(batch_size={BATCH_SIZE}, same landed count per row)"
            ),
        ),
    )
    high_load = speedups[WORKER_SWEEP[0]]
    assert high_load >= SPEEDUP_FLOOR, (
        f"high-load speedup {high_load:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_batch_smoke():
    """CI cell: batching on lands the clean cell green, as plain does."""
    files, changes = workload.mint_cell(
        seed=7, count=6, spec=MonorepoSpec(layers=(3, 4, 3), fan_in=2)
    )
    plain = workload.run_cell(files, changes, service_workers=2)
    on = workload.run_cell(files, changes, service_workers=2, batching=True)
    record_bench(
        "batch",
        "smoke_fingerprint",
        {
            "plain_fingerprint": plain.fingerprint,
            "plain_committed": plain.committed,
            "batching_on_committed": on.committed,
        },
    )
    emit(
        "batch_throughput_smoke",
        format_table(
            ("mode", "landed", "builds", "fingerprint"),
            [
                ("plain", plain.committed, plain.builds_started,
                 plain.fingerprint[:12]),
                ("batching-on", on.committed, on.builds_started,
                 on.fingerprint[:12]),
            ],
            title="batching smoke (service path)",
        ),
    )
    assert plain.committed == on.committed == len(changes)
    assert on.mainline_green
