"""System-level invariants checked across strategies on random workloads.

Whatever the scheduling policy, the planner must uphold the paper's
contract:

1. liveness — every submitted change is decided exactly once;
2. correctness — a change commits iff it passes individually and really
   conflicts with none of its committed conflicting predecessors;
3. order — conflicting changes decide in submission order;
4. always-green — no two committed, concurrently-pending changes really
   conflict (the label-mode equivalent of a green mainline at every
   commit point).
"""

import pytest

from dataclasses import replace

from repro.changes.truth import potential_conflict, real_conflict
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.sim.simulator import Simulation
from repro.strategies.batch import BatchStrategy
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.single_queue import SingleQueueStrategy
from repro.strategies.speculate_all import SpeculateAllStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import ChangeState
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

STRATEGY_FACTORIES = {
    "oracle": OracleStrategy,
    "submitqueue-oracle": lambda: SubmitQueueStrategy(OraclePredictor()),
    "submitqueue-static": lambda: SubmitQueueStrategy(StaticPredictor(0.8, 0.1)),
    "speculate-all": SpeculateAllStrategy,
    "optimistic": OptimisticStrategy,
    "single-queue": SingleQueueStrategy,
    "batch": lambda: BatchStrategy(batch_size=4),
}


def dense_stream(seed, count=45):
    config = WorkloadConfig(
        seed=seed,
        n_developers=15,
        target_universe=60,       # deliberately dense conflict graph
        zipf_exponent=1.0,
        mean_targets_per_change=2.0,
        real_conflict_rate=0.25,  # and high real-conflict rate
        base_success_rate=0.85,
    )
    return WorkloadGenerator(config).stream(240.0, count)


@pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestPlannerInvariants:
    def _run(self, strategy_name, seed):
        simulation = Simulation(
            strategy=STRATEGY_FACTORIES[strategy_name](),
            controller=LabelBuildController(),
            workers=12,
            conflict_predicate=potential_conflict,
        )
        result = simulation.run(dense_stream(seed))
        return simulation.planner, result

    def test_liveness_every_change_decided(self, strategy_name, seed):
        planner, result = self._run(strategy_name, seed)
        assert result.committed + result.rejected == (
            result.submitted
        )
        assert planner.pending_count() == 0

    def test_decisions_consistent_with_ground_truth(self, strategy_name, seed):
        planner, _ = self._run(strategy_name, seed)
        for record in planner.records.values():
            change = record.change
            committed_ancestors = [
                planner.all_changes[a]
                for a in planner.records[change.change_id].ancestors
                if planner.decided.get(a, False)
            ]
            should_commit = change.ground_truth.individually_ok and not any(
                real_conflict(change, other) for other in committed_ancestors
            )
            # Batch semantics commit/reject whole groups, which may reject
            # a change that would have passed alone — but must never
            # commit one that should fail.
            if strategy_name == "batch":
                if record.state is ChangeState.COMMITTED:
                    assert should_commit
            else:
                assert (record.state is ChangeState.COMMITTED) == should_commit

    def test_conflicting_changes_decide_in_order(self, strategy_name, seed):
        planner, _ = self._run(strategy_name, seed)
        decided_at = {
            r.change_id: r.decided_at for r in planner.records.values()
        }
        for change_id, record in planner.records.items():
            for ancestor_id in record.ancestors:
                assert decided_at[ancestor_id] <= decided_at[change_id]

    def test_always_green_no_committed_real_conflicts(self, strategy_name, seed):
        planner, _ = self._run(strategy_name, seed)
        committed = [
            planner.all_changes[r.change_id]
            for r in planner.records.values()
            if r.state is ChangeState.COMMITTED
        ]
        # Concurrently-pending committed pairs must be conflict-free;
        # concurrency is recorded by the ancestors relation.
        for change in committed:
            for ancestor_id in planner.records[change.change_id].ancestors:
                if planner.decided.get(ancestor_id, False):
                    ancestor = planner.all_changes[ancestor_id]
                    if strategy_name == "batch":
                        # Batches commit as a unit; the batch build itself
                        # verified the whole stack, so this must hold too.
                        pass
                    assert not real_conflict(change, ancestor), (
                        f"{strategy_name}: committed pair "
                        f"{ancestor_id} / {change.change_id} really conflicts"
                    )
