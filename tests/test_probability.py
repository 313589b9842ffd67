"""Unit tests for the speculation probability model (Equations 1-5)."""

import math

import pytest

from repro.speculation.probability import (
    estimate_commit_probabilities,
    p_needed,
)


class TestEstimateCommitProbabilities:
    def test_no_ancestors_equals_p_success(self):
        result = estimate_commit_probabilities(
            ["c1"], {"c1": []}, lambda c: 0.8, lambda a, b: 0.0
        )
        assert result["c1"] == pytest.approx(0.8)

    def test_equation_two_changes(self):
        """Equations 1-2: P_commit(C2) folds in C1's commit probability."""
        result = estimate_commit_probabilities(
            ["c1", "c2"],
            {"c1": [], "c2": ["c1"]},
            lambda c: {"c1": 0.9, "c2": 0.8}[c],
            lambda a, b: 0.1,
        )
        assert result["c1"] == pytest.approx(0.9)
        # multiplicative form: 0.8 * (1 - 0.9*0.1)
        assert result["c2"] == pytest.approx(0.8 * (1 - 0.09))

    def test_decided_ancestors_are_certain(self):
        result = estimate_commit_probabilities(
            ["c2"],
            {"c2": ["c0", "c1"]},
            lambda c: 0.8,
            lambda a, b: 0.5,
            decided={"c0": True, "c1": False},
        )
        # c0 committed: contributes (1 - 1.0*0.5); c1 rejected: no factor.
        assert result["c2"] == pytest.approx(0.8 * 0.5)
        assert result["c0"] == 1.0
        assert result["c1"] == 0.0

    def test_many_ancestors_never_saturates_to_zero(self):
        order = [f"c{i}" for i in range(200)]
        ancestors = {cid: order[:i] for i, cid in enumerate(order)}
        result = estimate_commit_probabilities(
            order, ancestors, lambda c: 0.95, lambda a, b: 0.01
        )
        assert 0.0 < result["c199"] < 0.95

    def test_unprocessed_ancestor_raises(self):
        with pytest.raises(KeyError):
            estimate_commit_probabilities(
                ["c2"], {"c2": ["missing"]}, lambda c: 0.5, lambda a, b: 0.5
            )


class TestPNeeded:
    def test_root_build_always_needed(self):
        assert p_needed([], [], {}) == 1.0

    def test_equation1(self):
        """P_needed(B_1.2) = P_commit(C1); P_needed(B_2) = 1 - P_commit(C1)."""
        probs = {"c1": 0.9}
        assert p_needed(["c1"], ["c1"], probs) == pytest.approx(0.9)
        assert p_needed([], ["c1"], probs) == pytest.approx(0.1)

    def test_equation5_shape(self):
        probs = {"c1": 0.9, "c2": 0.8}
        assert p_needed(["c1", "c2"], ["c1", "c2"], probs) == pytest.approx(0.72)
        assert p_needed(["c1"], ["c1", "c2"], probs) == pytest.approx(0.9 * 0.2)

    def test_probabilities_over_subsets_sum_to_one(self):
        import itertools

        probs = {"a": 0.3, "b": 0.6, "c": 0.9}
        total = sum(
            p_needed(subset, ["a", "b", "c"], probs)
            for size in range(4)
            for subset in itertools.combinations(["a", "b", "c"], size)
        )
        assert total == pytest.approx(1.0)
