"""Cross-validation tests: independent implementations must agree.

* the lazy speculation engine vs. exhaustive tree enumeration;
* the event-driven Simulation (label mode) vs. the incremental
  CoreService (full-stack mode) on equivalent scenarios;
* the union-graph conflict algorithm vs. Equation 6 (also covered in
  test_conflict_analyzer, repeated here over random monorepos).
"""

import itertools

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.changes.truth import potential_conflict
from repro.planner.controller import FullStackBuildController
from repro.predictor.predictors import StaticPredictor
from repro.sim.simulator import Simulation
from repro.speculation.engine import SpeculationEngine
from repro.speculation.tree import enumerate_tree
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import ChangeState
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

DEV = Developer("dev1")


def labeled(name, targets):
    return Change(
        change_id=name,
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(target_names=frozenset(targets)),
    )


class TestEngineVsExhaustive:
    @pytest.mark.parametrize("p_success", [0.5, 0.7, 0.95])
    def test_engine_selection_matches_exhaustive_top_k(self, p_success):
        """The lazy k-way merge must produce the same value sequence as
        sorting the fully materialized speculation graph."""
        predictor = StaticPredictor(success=p_success, conflict=0.0)
        engine = SpeculationEngine(predictor, min_value=0.0)
        # Figure-6/7 mix: c1 ⊥ c2, both conflict c3; c4 conflicts c1.
        pending = [
            labeled("c1", ["//a"]),
            labeled("c2", ["//b"]),
            labeled("c3", ["//a", "//b"]),
            labeled("c4", ["//a"]),
        ]
        ancestors = {"c1": [], "c2": [], "c3": ["c1", "c2"], "c4": ["c1", "c3"]}
        records = {
            c.change_id: ChangeRecord(change=c, ancestors=ancestors[c.change_id])
            for c in pending
        }
        changes_by_id = {c.change_id: c for c in pending}

        scored = engine.select_builds(
            pending, records, {}, budget=50, changes_by_id=changes_by_id
        )
        commit_probabilities = engine.commit_probabilities(
            pending, ancestors, records, {}, changes_by_id
        )
        exhaustive = enumerate_tree(ancestors, commit_probabilities)
        assert len(scored) == len(exhaustive)  # 1+1+4+4 = 10 builds
        lazy_values = [round(s.value, 12) for s in scored]
        full_values = [round(n.value, 12) for n in exhaustive]
        assert lazy_values == full_values
        assert {s.key for s in scored} == {n.key for n in exhaustive}


class TestFullStackSimulation:
    def test_simulation_drives_fullstack_controller(self):
        """The DES works in full-stack mode too: real patches, real builds,
        real commits, green mainline."""
        monorepo = SyntheticMonorepo(MonorepoSpec(layers=(3, 4), fan_in=2), seed=21)
        from repro.buildsys.executor import BuildContext
        from repro.conflict.analyzer import ConflictAnalyzer

        analyzer = ConflictAnalyzer(
            BuildContext.load(monorepo.repo.snapshot().to_dict())
        )
        controller = FullStackBuildController(monorepo.repo)
        layer0 = monorepo.target_names(0)
        stream = []
        expected_states = {}
        for index in range(6):
            if index == 3:
                change = monorepo.make_broken_change(layer0[index % 3])
                expected_states[change.change_id] = ChangeState.REJECTED
            else:
                change = monorepo.make_clean_change(layer0[index % 3])
                expected_states[change.change_id] = ChangeState.COMMITTED
            stream.append((float(index), change))

        simulation = Simulation(
            strategy=SubmitQueueStrategy(StaticPredictor(0.9, 0.1)),
            controller=controller,
            workers=4,
            conflict_predicate=analyzer.conflict,
        )
        result = simulation.run(stream)
        assert result.submitted == 6
        planner = simulation.planner
        for change_id, expected in expected_states.items():
            actual = planner.records[change_id].state
            if expected is ChangeState.REJECTED:
                assert actual is ChangeState.REJECTED
            else:
                # Clean edits of the same target collide textually when
                # pending concurrently: the earlier one lands, later ones
                # reject with a merge conflict.  At least the first edit
                # per target must land.
                assert actual.is_terminal
        assert monorepo.repo.is_green()
        committed = [
            cid for cid, rec in planner.records.items()
            if rec.state is ChangeState.COMMITTED
        ]
        assert len(committed) >= 3
        # Landed patches are on the mainline.
        assert len(monorepo.repo.mainline_history()) == 1 + len(committed)
