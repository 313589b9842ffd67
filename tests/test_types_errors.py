"""Unit tests for shared types and the error hierarchy."""

import pytest

from repro import errors
from repro.types import (
    AffectedTarget,
    BuildKey,
    ChangeState,
    DEFAULT_STEP_ORDER,
    StepKind,
)


class TestBuildKey:
    def test_equality_and_hash(self):
        a = BuildKey("c1", frozenset({"a", "b"}))
        b = BuildKey("c1", frozenset({"b", "a"}))
        assert a == b
        assert hash(a) == hash(b)
        assert a != BuildKey("c1", frozenset({"a"}))

    def test_self_assumption_rejected(self):
        with pytest.raises(ValueError):
            BuildKey("c1", frozenset({"c1"}))

    def test_depth(self):
        assert BuildKey("c1").depth == 0
        assert BuildKey("c1", frozenset({"a", "b"})).depth == 2

    def test_label_is_sorted_and_stable(self):
        key = BuildKey("c9", frozenset({"c2", "c1"}))
        assert key.label() == "B[c1.c2.c9]"

    def test_usable_as_dict_key(self):
        table = {BuildKey("c1"): 1}
        assert table[BuildKey("c1", frozenset())] == 1


class TestChangeState:
    def test_terminal_flags(self):
        assert not ChangeState.PENDING.is_terminal
        for state in (ChangeState.COMMITTED, ChangeState.REJECTED,
                      ChangeState.ABORTED):
            assert state.is_terminal

    def test_values_roundtrip(self):
        for state in ChangeState:
            assert ChangeState(state.value) is state


class TestStepKinds:
    def test_default_order_covers_all_kinds(self):
        assert set(DEFAULT_STEP_ORDER) == set(StepKind)

    def test_compile_first_artifact_last(self):
        assert DEFAULT_STEP_ORDER[0] is StepKind.COMPILE
        assert DEFAULT_STEP_ORDER[-1] is StepKind.ARTIFACT


class TestAffectedTarget:
    def test_hashable_value_semantics(self):
        a = AffectedTarget("//x:y", "abc")
        b = AffectedTarget("//x:y", "abc")
        assert a == b and len({a, b}) == 1
        assert a != AffectedTarget("//x:y", "def")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            errors.VcsError,
            errors.BuildSystemError,
            errors.ChangeError,
            errors.PlannerError,
            errors.PredictorError,
            errors.SimulationError,
            errors.WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, errors.ReproError)

    def test_patch_conflict_error_payload(self):
        error = errors.PatchConflictError("a/b.py", "diverged")
        assert error.path == "a/b.py"
        assert "diverged" in str(error)

    def test_cycle_error_payload(self):
        error = errors.DependencyCycleError(["//a:a", "//b:b"])
        assert error.cycle == ["//a:a", "//b:b"]
        assert "//a:a -> //b:b" in str(error)

    def test_illegal_transition_payload(self):
        error = errors.IllegalTransitionError(
            ChangeState.COMMITTED, ChangeState.REJECTED
        )
        assert "ChangeState.COMMITTED" in str(error)

    def test_catching_base_covers_subsystems(self):
        try:
            raise errors.UnknownTargetError("//x:y")
        except errors.ReproError as caught:
            assert isinstance(caught, errors.BuildSystemError)
