"""Unit tests for incremental epoch planning.

Covers the incremental layers this subsystem stacks.  The engine is told
what moved (``on_submit``, ``on_decision``, ``on_build_finished``), as the
planner tells it through the strategy, and each record carries its
change's ancestor list:

* the speculation engine's unchanged round (a no-op epoch performs zero
  predictor calls and returns the identical selection);
* dirty-set commit probabilities (only the downstream cone of changed
  inputs is re-swept; reused values are bit-identical; a re-asked
  ``P_succ`` that comes back bit-equal dirties nothing);
* enumerators built only for popped changes, carried over across epochs;
* the planner's iterative ancestor-cycle check for deep queues.
"""

from collections.abc import Mapping

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.obs.recorder import Recorder
from repro.planner.controller import LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.predictor.predictors import Predictor, StaticPredictor
from repro.speculation.engine import SpeculationEngine
from repro.strategies.single_queue import SingleQueueStrategy

DEV = Developer("dev1")


def labeled(targets=("//m",), ok=True, rate=0.0, salt=0, duration=30.0):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=ok,
            target_names=frozenset(targets),
            conflict_salt=salt,
            real_conflict_rate=rate,
        ),
        build_duration=duration,
    )


class CountingPredictor(Predictor):
    """Delegates to an inner predictor, counting every model call."""

    def __init__(self, inner: Predictor) -> None:
        self.inner = inner
        self.success_calls = 0
        self.conflict_calls = 0

    @property
    def calls(self) -> int:
        return self.success_calls + self.conflict_calls

    def p_success(self, change, record=None):
        self.success_calls += 1
        return self.inner.p_success(change, record)

    def p_conflict(self, first, second):
        self.conflict_calls += 1
        return self.inner.p_conflict(first, second)


class FailureShyPredictor(Predictor):
    """``P_succ`` halves with every failed speculation; flat ``P_conf``."""

    def p_success(self, change, record=None):
        failed = record.speculations_failed if record else 0
        return 0.8 / 2**failed

    def p_conflict(self, first, second):
        return 0.3


def build_queue(n=6, conflict_rate=0.5):
    """A pending queue where consecutive changes share a target (a chain)."""
    pending = []
    ancestors = {}
    for i in range(n):
        change = labeled(targets=(f"//t{i}", f"//t{i + 1}"), salt=i)
        ancestors[change.change_id] = (
            [pending[-1].change_id] if pending else []
        )
        pending.append(change)
    return pending, ancestors


def engine_inputs(pending, ancestors):
    """``changes_by_id``, and records carrying ``ancestors``' lists."""
    changes_by_id = {c.change_id: c for c in pending}
    records = {
        c.change_id: ChangeRecord(change=c, ancestors=ancestors.get(c.change_id, []))
        for c in pending
    }
    return changes_by_id, records


class TestEngineFingerprint:
    def test_noop_epoch_zero_predictor_calls_same_selection(self):
        predictor = CountingPredictor(StaticPredictor(0.8, 0.3))
        engine = SpeculationEngine(predictor)
        pending, ancestors = build_queue(6)
        changes_by_id, records = engine_inputs(pending, ancestors)

        first = engine.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        calls_after_first = predictor.calls
        assert calls_after_first > 0
        second = engine.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        assert predictor.calls == calls_after_first  # zero new model calls
        assert second == first  # same builds, same order, same values
        assert engine.stats.commit_prob_recomputed == 6  # the second cone is empty

    def test_skip_result_is_a_copy(self):
        engine = SpeculationEngine(StaticPredictor(0.8, 0.3))
        pending, ancestors = build_queue(4)
        changes_by_id, records = engine_inputs(pending, ancestors)
        first = engine.select_builds(
            pending, records, {}, budget=4, changes_by_id=changes_by_id
        )
        first.clear()  # caller mutates its list...
        second = engine.select_builds(
            pending, records, {}, budget=4, changes_by_id=changes_by_id
        )
        assert second  # ...without corrupting the engine's memo

    def test_budget_change_invalidates_fingerprint(self):
        engine = SpeculationEngine(StaticPredictor(0.8, 0.3))
        pending, ancestors = build_queue(5)
        changes_by_id, records = engine_inputs(pending, ancestors)
        engine.select_builds(
            pending, records, {}, budget=2, changes_by_id=changes_by_id
        )
        bigger = engine.select_builds(
            pending, records, {}, budget=6, changes_by_id=changes_by_id
        )
        assert len(bigger) > 2

    def test_counter_change_invalidates_and_matches_cold_engine(self):
        shared = StaticPredictor(0.8, 0.3)
        warm = SpeculationEngine(shared)
        pending, ancestors = build_queue(6)
        changes_by_id, records = engine_inputs(pending, ancestors)
        warm.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        # A completed speculation moves one change's dynamic counters.
        records[pending[2].change_id].speculations_succeeded += 1
        warm.on_build_finished(pending[2].change_id)
        incremental = warm.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        cold = SpeculationEngine(shared).select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        assert incremental == cold
        assert warm.stats.commit_prob_reused > 0  # upstream of the dirty change

    def test_decision_invalidates_and_matches_cold_engine(self):
        shared = StaticPredictor(0.8, 0.3)
        warm = SpeculationEngine(shared)
        pending, ancestors = build_queue(6)
        changes_by_id, records = engine_inputs(pending, ancestors)
        warm.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        decided = {pending[0].change_id: True}
        warm.on_decision(pending[0].change_id)
        still_pending = pending[1:]
        incremental = warm.select_builds(
            still_pending, records, decided, budget=8,
            changes_by_id=changes_by_id,
        )
        cold = SpeculationEngine(shared).select_builds(
            still_pending, records, decided, budget=8,
            changes_by_id=changes_by_id,
        )
        assert incremental == cold

    def test_invalidate_carry_over_forces_cold_round(self):
        predictor = CountingPredictor(StaticPredictor(0.8, 0.3))
        engine = SpeculationEngine(predictor)
        pending, ancestors = build_queue(4)
        changes_by_id, records = engine_inputs(pending, ancestors)
        first = engine.select_builds(
            pending, records, {}, budget=4, changes_by_id=changes_by_id
        )
        calls = predictor.calls
        engine.invalidate_carry_over()
        second = engine.select_builds(
            pending, records, {}, budget=4, changes_by_id=changes_by_id
        )
        assert predictor.calls > calls  # really recomputed
        assert second == first


class PointLookupsOnly(Mapping):
    """Answers ``[]``, ``get``, ``in`` and ``len``; any walk fails."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def get(self, key, default=None):
        return self._data.get(key, default)

    def __contains__(self, key):
        return key in self._data

    def __len__(self):
        return len(self._data)

    def _walked(self, *args, **kwargs):
        raise AssertionError("selection walked a whole-history mapping")

    __iter__ = keys = values = items = _walked


class TestSelectionCostIsIndependentOfLifetime:
    def test_a_long_decision_history_is_only_point_looked_up(self):
        """Four pending changes after 2,000 decisions: a round may ask
        ``decided``/``records`` about the changes it is working on, never
        enumerate them — and still answers what a cold engine answers."""
        shared = FailureShyPredictor()
        landed, bounced = labeled(("//t0",), salt=90), labeled(("//t0",), salt=91)
        pending, ancestors = build_queue(4)
        # The head of the queue remembers two ancestors decided long ago.
        ancestors[pending[0].change_id] = [landed.change_id, bounced.change_id]
        history = {f"old-{i:04d}": bool(i % 3) for i in range(1998)}
        history[landed.change_id] = True
        history[bounced.change_id] = False
        changes_by_id, records = engine_inputs(
            pending + [landed, bounced], ancestors
        )

        warm = SpeculationEngine(shared)
        for bump in (None, pending[1]):
            if bump is not None:
                records[bump.change_id].speculations_failed += 1
                warm.on_build_finished(bump.change_id)
            selection = warm.select_builds(
                pending, PointLookupsOnly(records),
                PointLookupsOnly(history), budget=8,
                changes_by_id=changes_by_id,
            )
            cold = SpeculationEngine(shared).select_builds(
                pending, records, history, budget=8,
                changes_by_id=changes_by_id,
            )
            assert selection and selection == cold
        assert warm.stats.commit_prob_reused == 1  # second round was warm


class TestEnumeratorCarryOver:
    def test_only_popped_changes_get_an_enumerator(self):
        """Twelve independent changes, budget three: the merge pops three
        changes, so three enumerators exist — built once, then replayed."""
        engine = SpeculationEngine(StaticPredictor(0.8, 0.3))
        pending = [labeled((f"//solo{i}",), salt=i) for i in range(12)]
        ancestors = {c.change_id: [] for c in pending}
        changes_by_id, records = engine_inputs(pending, ancestors)
        for _ in range(2):
            selection = engine.select_builds(
                pending, records, {}, budget=3,
                changes_by_id=changes_by_id,
            )
        assert [b.change_id for b in selection] == [
            c.change_id for c in pending[:3]
        ]
        assert engine.stats.enumerators_rebuilt == 3
        assert engine.stats.enumerators_reused == 3

    def test_unrelated_arrival_reuses_enumerators(self):
        engine = SpeculationEngine(StaticPredictor(0.8, 0.3))
        pending, ancestors = build_queue(5)
        changes_by_id, records = engine_inputs(pending, ancestors)
        engine.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        built_cold = engine.stats.enumerators_rebuilt
        assert built_cold == 5
        # An independent newcomer perturbs nobody's ancestors or P_commit.
        newcomer = labeled(targets=("//island",))
        pending = pending + [newcomer]
        ancestors = dict(ancestors)
        ancestors[newcomer.change_id] = []
        changes_by_id, records2 = engine_inputs(pending, ancestors)
        records[newcomer.change_id] = records2[newcomer.change_id]
        engine.on_submit(records[newcomer.change_id])
        engine.select_builds(
            pending, records, {}, budget=8, changes_by_id=changes_by_id
        )
        assert engine.stats.enumerators_reused == 5  # all five carried over
        assert engine.stats.enumerators_rebuilt == built_cold + 1  # newcomer
        assert engine.stats.nodes_replayed > 0


class TestObsCounters:
    def test_incremental_counters_reach_the_registry(self):
        recorder = Recorder(clock=lambda: 0.0)
        engine = SpeculationEngine(StaticPredictor(0.8, 0.3))
        engine.bind_recorder(recorder)
        pending, ancestors = build_queue(4)
        changes_by_id, records = engine_inputs(pending, ancestors)
        for _ in range(3):
            engine.select_builds(
                pending, records, {}, budget=4,
                changes_by_id=changes_by_id,
            )
        registry = recorder.registry
        assert "commit_prob_reused_total" in registry
        assert registry.counter("commit_prob_reused_total").value == 8.0
        assert engine.stats.commit_prob_reused == 8  # rounds two and three


class DictPredictor(Predictor):
    """``P_succ`` read from a dict the test edits; flat ``P_conf``."""

    def __init__(self, p_success, p_conflict=0.25):
        self.table = p_success
        self.conflict = p_conflict

    def p_success(self, change, record=None):
        return self.table[change.change_id]

    def p_conflict(self, first, second):
        return self.conflict


class TestIncrementalProbabilities:
    """The engine re-sweeps exactly the downstream cone of what moved.

    The DAG: ``a <- b <- c``, ``d``, and ``e`` listing ``[d, c]``.
    """

    @staticmethod
    def dag():
        a, b, c, d, e = (labeled((f"//dag{i}",), salt=i) for i in range(5))
        pending = [a, b, c, d, e]
        ancestors = {
            a.change_id: [],
            b.change_id: [a.change_id],
            c.change_id: [b.change_id],
            d.change_id: [],
            e.change_id: [d.change_id, c.change_id],
        }
        p_success = dict(
            zip((x.change_id for x in pending), (0.9, 0.8, 0.7, 0.6, 0.95))
        )
        return pending, ancestors, p_success

    def run_round(self, engine, pending, records):
        changes_by_id = {c.change_id: c for c in pending}
        before = (
            engine.stats.commit_prob_recomputed,
            engine.stats.commit_prob_reused,
        )
        selection = engine.select_builds(
            pending, records, {}, budget=8,
            changes_by_id=changes_by_id,
        )
        return (
            selection,
            engine.stats.commit_prob_recomputed - before[0],
            engine.stats.commit_prob_reused - before[1],
        )

    def test_dirty_cone_is_downstream_closure(self):
        pending, ancestors, p_success = self.dag()
        a, b, c, d, e = pending
        _, records = engine_inputs(pending, ancestors)
        engine = SpeculationEngine(DictPredictor(p_success))
        self.run_round(engine, pending, records)
        # b's P_succ moves: the cone is {b, c, e}; a and d are reused.
        p_success[b.change_id] = 0.5
        records[b.change_id].speculations_succeeded += 1
        engine.on_build_finished(b.change_id)
        _, recomputed, reused = self.run_round(engine, pending, records)
        assert (recomputed, reused) == (3, 2)
        # d's P_succ moves: the cone is {d, e}.
        p_success[d.change_id] = 0.3
        records[d.change_id].speculations_failed += 1
        engine.on_build_finished(d.change_id)
        _, recomputed, reused = self.run_round(engine, pending, records)
        assert (recomputed, reused) == (2, 3)
        # Nothing moved, only the budget: every value is reused.
        changes_by_id = {c.change_id: c for c in pending}
        engine.select_builds(
            pending, records, {}, budget=3,
            changes_by_id=changes_by_id,
        )
        assert engine.stats.commit_prob_recomputed == 5 + 3 + 2
        assert engine.stats.commit_prob_reused == 2 + 3 + 5

    def test_incremental_sweep_matches_full_and_counts_reuse(self):
        pending, ancestors, p_success = self.dag()
        d = pending[3]
        _, records = engine_inputs(pending, ancestors)
        predictor = DictPredictor(p_success)
        engine = SpeculationEngine(predictor)
        self.run_round(engine, pending, records)
        # d's inputs move (its P_succ is re-asked under the new
        # counters); a, b, c are untouched.
        p_success[d.change_id] = 0.1
        records[d.change_id].speculations_failed += 1
        engine.on_build_finished(d.change_id)
        incremental, recomputed, reused = self.run_round(
            engine, pending, records
        )
        full, _, _ = self.run_round(
            SpeculationEngine(predictor), pending, records
        )
        assert incremental == full
        assert (recomputed, reused) == (2, 3)  # cone {d, e}; a, b, c reused

    def test_unchanged_p_success_dirties_nothing(self):
        """Counters move on every change, but the re-asked ``P_succ``
        comes back bit-equal: the round re-asks, re-sweeps nothing, and
        still answers what a cold engine answers."""
        pending, ancestors, p_success = self.dag()
        _, records = engine_inputs(pending, ancestors)
        predictor = CountingPredictor(DictPredictor(p_success))
        engine = SpeculationEngine(predictor)
        self.run_round(engine, pending, records)
        for record in records.values():
            record.speculations_succeeded += 1
            engine.on_build_finished(record.change_id)
        asked = predictor.success_calls
        warm, recomputed, reused = self.run_round(
            engine, pending, records
        )
        assert predictor.success_calls == asked + 5
        assert (recomputed, reused) == (0, 5)
        cold, _, _ = self.run_round(
            SpeculationEngine(DictPredictor(p_success)),
            pending, records,
        )
        assert warm == cold

    def test_p_success_moved_by_batch_planning_still_dirties(self):
        """Batch planning may be the first to re-ask a moved ``P_succ``;
        the next selection round must still re-sweep that change's cone."""
        pending, ancestors, p_success = self.dag()
        a = pending[0]
        changes_by_id, records = engine_inputs(pending, ancestors)
        predictor = DictPredictor(p_success)
        engine = SpeculationEngine(predictor)
        self.run_round(engine, pending, records)
        p_success[a.change_id] = 0.2
        records[a.change_id].speculations_failed += 1
        engine.on_build_finished(a.change_id)
        engine.plan_risk_batches(
            [a.change_id, pending[3].change_id], pending, records, changes_by_id,
            batch_size=4, member_confidence=0.0, max_pair_conflict=1.0,
            min_joint_success=0.0,
        )
        warm, recomputed, _ = self.run_round(engine, pending, records)
        cold, _, _ = self.run_round(
            SpeculationEngine(predictor), pending, records
        )
        assert warm == cold
        assert recomputed == 4  # a, b, c, e: a's downstream cone

    def test_no_previous_falls_back_to_full(self):
        pending, ancestors, p_success = self.dag()
        _, records = engine_inputs(pending, ancestors)
        engine = SpeculationEngine(DictPredictor(p_success))
        _, recomputed, reused = self.run_round(engine, pending, records)
        assert (recomputed, reused) == (5, 0)
        engine.invalidate_carry_over()
        _, recomputed, reused = self.run_round(engine, pending, records)
        assert (recomputed, reused) == (5, 0)


class TestPredictorCaches:
    @staticmethod
    def make_learned():
        import numpy as np

        from repro.predictor.features import CONFLICT_FEATURES, SUCCESS_FEATURES
        from repro.predictor.logistic import LogisticRegression
        from repro.predictor.predictors import LearnedPredictor

        smodel = LogisticRegression().fit(
            np.array([[0.0] * len(SUCCESS_FEATURES), [1.0] * len(SUCCESS_FEATURES)]),
            np.array([0, 1]),
        )
        cmodel = LogisticRegression().fit(
            np.array([[0.0] * len(CONFLICT_FEATURES), [1.0] * len(CONFLICT_FEATURES)]),
            np.array([0, 1]),
        )
        return LearnedPredictor(smodel, cmodel)

    def test_lru_bounds_the_success_cache(self, monkeypatch):
        from repro.predictor.predictors import LearnedPredictor

        monkeypatch.setattr(LearnedPredictor, "CACHE_CAPACITY", 4)
        predictor = self.make_learned()
        changes = [labeled((f"//c{i}",), salt=i) for i in range(10)]
        values = {c.change_id: predictor.p_success(c) for c in changes}
        success_stats, _ = predictor.cache_stats
        assert len(predictor._success_cache) == 4
        assert predictor.cache_evictions == 6
        assert success_stats.evictions == 6
        # Evicted entries recompute to the same value.
        assert predictor.p_success(changes[0]) == values[changes[0].change_id]

    def test_lru_bounds_the_conflict_cache(self, monkeypatch):
        from repro.predictor.predictors import LearnedPredictor

        monkeypatch.setattr(LearnedPredictor, "CACHE_CAPACITY", 3)
        predictor = self.make_learned()
        changes = [labeled((f"//c{i}",), salt=i) for i in range(5)]
        for other in changes[1:]:
            predictor.p_conflict(changes[0], other)
        assert len(predictor._conflict_cache) == 3
        _, conflict_stats = predictor.cache_stats
        assert conflict_stats.evictions == 1

    def test_a_reused_id_is_asked_afresh(self):
        """The memos answer for the changes they were computed from: a
        different change reusing an id (ids restart per process, and one
        trained predictor may serve several runs) gets its own
        probability, not the first one's."""

        def change(change_id, count):
            return Change(
                change_id=change_id,
                revision_id="R1",
                developer=DEV,
                ground_truth=GroundTruth(
                    target_names=frozenset(f"//t{i}" for i in range(count))
                ),
            )

        predictor = self.make_learned()
        small, large = change("D-reused", 1), change("D-reused", 6)
        other = change("D-other", 1)
        fresh = self.make_learned()
        assert predictor.p_success(small) == fresh.p_success(small)
        assert predictor.p_success(large) == fresh.p_success(large)
        assert predictor.p_success(small) != predictor.p_success(large)
        assert predictor.p_success_many([(small, None)]) == [
            fresh.p_success(small)
        ]
        assert predictor.p_conflict(small, other) == fresh.p_conflict(small, other)
        assert predictor.p_conflict(other, large) == fresh.p_conflict(other, large)
        assert predictor.p_conflict(small, other) != predictor.p_conflict(
            large, other
        )

    def test_cache_hits_counted(self):
        predictor = self.make_learned()
        change = labeled(("//hit",))
        predictor.p_success(change)
        predictor.p_success(change)
        success_stats, _ = predictor.cache_stats
        assert success_stats.hits == 1
        assert success_stats.misses == 1

    def test_predict_many_matches_predict_one(self):
        import numpy as np

        from repro.predictor.logistic import LogisticRegression

        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = LogisticRegression().fit(X, y)
        batch = rng.normal(size=(15, 3))
        many = model.predict_many(batch)
        singles = [model.predict_one(row) for row in batch]
        assert many.shape == (15,)
        assert singles == pytest.approx(list(many), abs=1e-12)
        assert model.predict_many(np.empty((0, 3))).shape == (0,)
        with pytest.raises(ValueError):
            model.predict_many(batch[0])

    def test_p_success_many_matches_scalar_path_and_fills_cache(self):
        scalar = self.make_learned()
        batched = self.make_learned()
        changes = [labeled((f"//c{i}",), salt=i) for i in range(8)]
        records = {c.change_id: ChangeRecord(change=c) for c in changes}
        records[changes[3].change_id].speculations_failed = 2
        pairs = [(c, records[c.change_id]) for c in changes]
        expected = [scalar.p_success(c, r) for c, r in pairs]
        assert batched.p_success_many(pairs) == pytest.approx(expected, abs=1e-12)
        # The batch filled the memo: scalar lookups are now pure hits.
        success_stats, _ = batched.cache_stats
        misses_after_batch = success_stats.misses
        assert [batched.p_success(c, r) for c, r in pairs] == pytest.approx(
            expected, abs=1e-12
        )
        assert success_stats.misses == misses_after_batch

    def test_p_success_many_mixed_hits_and_misses(self):
        predictor = self.make_learned()
        changes = [labeled((f"//c{i}",), salt=i) for i in range(6)]
        pairs = [(c, None) for c in changes]
        warm = {c.change_id: predictor.p_success(c) for c in changes[:3]}
        values = predictor.p_success_many(pairs)
        for change, value in zip(changes[:3], values[:3]):
            assert value == warm[change.change_id]  # hits are byte-identical
        assert len(values) == 6


class TestLongChainCycleCheck:
    def test_deep_chain_reorder_does_not_recurse(self):
        # A 1500-deep ancestor chain blows Python's default recursion
        # limit if the cycle check recurses; the iterative walk must not.
        planner = PlannerEngine(
            strategy=SingleQueueStrategy(),
            controller=LabelBuildController(),
            workers=1,
            conflict_predicate=lambda a, b: True,  # everyone conflicts
        )
        n = 1500
        chain = []
        for i in range(n):
            change = labeled(("//deep",), salt=i)
            # Bypass submit(): the O(n^2) conflict-graph scan is not under
            # test, the cycle walk over the records' ancestor lists is.
            planner.conflict_graph.add(change, candidate_ids=())
            planner.records[change.change_id] = ChangeRecord(
                change=change, ancestors=[chain[-1].change_id] if chain else []
            )
            chain.append(change)
        records = planner.records
        # Give the tail a second ancestor so a reorder can close a triangle.
        x, y, z = (c.change_id for c in chain[-3:])
        records[z].ancestors = [x, y]
        # Records written past submit() carry no undecided counts yet:
        # derive them the way a restored snapshot does.
        planner.reindex()
        assert planner._ancestors_have_cycle() is False
        # z jumping x would leave x -> z -> y -> x: caught and rolled back
        # (the check walks the whole 1500-deep chain without recursing).
        assert not planner.reorder(x, z)
        # Rollback restores the edge set (append order is not preserved).
        assert set(records[z].ancestors) == {x, y}
        assert planner.reorders_applied == 0
        # An adjacent swap closes no cycle and is applied.
        assert planner.reorder(y, z)
        assert z in records[y].ancestors and y not in records[z].ancestors
        assert planner.reorders_applied == 1
