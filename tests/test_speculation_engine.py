"""Unit tests for the speculation engine's build selection."""

import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.predictor.predictors import OraclePredictor, StaticPredictor
from repro.speculation.engine import SpeculationEngine
from repro.types import BuildKey

DEV = Developer("dev1")


def labeled(name, targets, ok=True, rate=0.0, salt=0):
    change = Change(
        change_id=name,
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=ok,
            target_names=frozenset(targets),
            conflict_salt=salt,
            real_conflict_rate=rate,
        ),
    )
    return change


def select(engine, pending, ancestors, decided=None, budget=10):
    changes_by_id = {c.change_id: c for c in pending}
    records = {
        c.change_id: ChangeRecord(change=c, ancestors=ancestors[c.change_id])
        for c in pending
    }
    return engine.select_builds(
        pending=pending,
        records=records,
        decided=decided or {},
        budget=budget,
        changes_by_id=changes_by_id,
    )


class TestSelection:
    def test_independent_changes_one_build_each(self):
        engine = SpeculationEngine(StaticPredictor(success=0.9, conflict=0.0))
        pending = [labeled("c1", ["//a"]), labeled("c2", ["//b"])]
        scored = select(engine, pending, {"c1": [], "c2": []})
        keys = {s.key for s in scored}
        assert BuildKey("c1", frozenset()) in keys
        assert BuildKey("c2", frozenset()) in keys

    def test_budget_respected_and_value_ordered(self):
        engine = SpeculationEngine(StaticPredictor(success=0.9, conflict=0.0))
        pending = [labeled("c1", ["//a"]), labeled("c2", ["//a"]),
                   labeled("c3", ["//a"])]
        ancestors = {"c1": [], "c2": ["c1"], "c3": ["c1", "c2"]}
        scored = select(engine, pending, ancestors, budget=3)
        assert len(scored) == 3
        values = [s.value for s in scored]
        assert values == sorted(values, reverse=True)
        # With p=0.9 everywhere, the most likely path is selected first.
        assert scored[0].key == BuildKey("c1", frozenset())
        assert scored[1].key == BuildKey("c2", frozenset({"c1"}))

    def test_zero_budget(self):
        engine = SpeculationEngine(StaticPredictor())
        assert select(engine, [labeled("c1", ["//a"])], {"c1": []}, budget=0) == []

    def test_oracle_selects_exactly_true_path(self):
        """With perfect foresight only the decisive builds carry value."""
        engine = SpeculationEngine(OraclePredictor())
        good = labeled("c1", ["//a"], ok=True)
        bad = labeled("c2", ["//a"], ok=False)
        later = labeled("c3", ["//a"], ok=True)
        pending = [good, bad, later]
        ancestors = {"c1": [], "c2": ["c1"], "c3": ["c1", "c2"]}
        scored = select(engine, pending, ancestors, budget=10)
        keys = [s.key for s in scored]
        # Everything with nonzero value: c1 alone, c2 on c1, c3 on c1 only
        # (oracle knows c2 will fail).
        assert keys == [
            BuildKey("c1", frozenset()),
            BuildKey("c2", frozenset({"c1"})),
            BuildKey("c3", frozenset({"c1"})),
        ]
        assert all(s.value == pytest.approx(1.0) for s in scored)

    def test_decided_ancestors_fold_into_keys(self):
        engine = SpeculationEngine(StaticPredictor(success=0.9, conflict=0.0))
        committed = labeled("c0", ["//a"])
        rejected = labeled("cr", ["//a"])
        pending = [labeled("c2", ["//a"])]
        changes_by_id = {c.change_id: c for c in pending}
        changes_by_id["c0"] = committed
        changes_by_id["cr"] = rejected
        scored = engine.select_builds(
            pending=pending,
            records={"c2": ChangeRecord(change=pending[0], ancestors=["c0", "cr"])},
            decided={"c0": True, "cr": False},
            budget=5,
            changes_by_id=changes_by_id,
        )
        assert scored[0].key == BuildKey("c2", frozenset({"c0"}))
        assert scored[0].value == pytest.approx(1.0)

    def test_min_value_stops_enumeration(self, monkeypatch):
        monkeypatch.setattr(SpeculationEngine, "MIN_VALUE", 0.4)
        engine = SpeculationEngine(StaticPredictor(success=0.5, conflict=0.0))
        pending = [labeled("c1", ["//a"]), labeled("c2", ["//a"])]
        ancestors = {"c1": [], "c2": ["c1"]}
        scored = select(engine, pending, ancestors, budget=10)
        # c1's root build has value 1.0; c2's builds have value 0.5 each,
        # which passes 0.4; deeper values would be cut.
        assert all(s.value >= 0.4 for s in scored)

    def test_conditional_success_reported(self):
        engine = SpeculationEngine(StaticPredictor(success=0.8, conflict=0.1))
        pending = [labeled("c1", ["//a"]), labeled("c2", ["//a"])]
        ancestors = {"c1": [], "c2": ["c1"]}
        scored = select(engine, pending, ancestors, budget=10)
        by_key = {s.key: s for s in scored}
        stacked = by_key[BuildKey("c2", frozenset({"c1"}))]
        # The build stacked on c1 is needed exactly when c1 commits.
        assert stacked.value == pytest.approx(0.8)
