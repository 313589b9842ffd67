"""Unit tests for the speculation tree and lazy enumerator."""

import itertools

import pytest

from repro.speculation.tree import SpeculationNode, SubsetEnumerator, enumerate_tree
from repro.types import BuildKey


class TestEnumerateTree:
    def test_figure5_tree_shape(self):
        """Three mutually conflicting changes -> 1 + 2 + 4 = 7 builds."""
        nodes = enumerate_tree(
            {"c1": [], "c2": ["c1"], "c3": ["c1", "c2"]},
            {"c1": 0.5, "c2": 0.5, "c3": 0.5},
        )
        assert len(nodes) == 7
        keys = {node.key for node in nodes}
        assert BuildKey("c1", frozenset()) in keys
        assert BuildKey("c2", frozenset({"c1"})) in keys
        assert BuildKey("c3", frozenset({"c1", "c2"})) in keys

    def test_figure6_graph_shape(self):
        """C1 ⊥ C2, both conflict C3: C1/C2 get one build, C3 gets four."""
        nodes = enumerate_tree(
            {"c1": [], "c2": [], "c3": ["c1", "c2"]},
            {"c1": 0.5, "c2": 0.5, "c3": 0.5},
        )
        by_change = {}
        for node in nodes:
            by_change.setdefault(node.change_id, []).append(node)
        assert len(by_change["c1"]) == 1
        assert len(by_change["c2"]) == 1
        assert len(by_change["c3"]) == 4

    def test_figure7_graph_shape(self):
        """C1 conflicts with C2 and C3; C2 ⊥ C3: five builds total."""
        nodes = enumerate_tree(
            {"c1": [], "c2": ["c1"], "c3": ["c1"]},
            {"c1": 0.5, "c2": 0.5, "c3": 0.5},
        )
        assert len(nodes) == 5

    def test_known_committed_folded_into_keys(self):
        nodes = enumerate_tree(
            {"c2": ["c1"]}, {"c1": 1.0, "c2": 0.5},
            known_committed=frozenset({"c0"}),
        )
        assert all("c0" in node.key.assumed for node in nodes)

    def test_rejects_oversized_ancestor_sets(self):
        ancestors = {f"c": [f"a{i}" for i in range(20)]}
        with pytest.raises(ValueError):
            enumerate_tree(ancestors, {f"a{i}": 0.5 for i in range(20)},
                           max_ancestors=16)


class TestSubsetEnumerator:
    def _brute_force(self, ancestors, probs):
        rows = []
        for size in range(len(ancestors) + 1):
            for subset in itertools.combinations(ancestors, size):
                p = 1.0
                for a in ancestors:
                    p *= probs[a] if a in subset else 1 - probs[a]
                rows.append((p, frozenset(subset)))
        rows.sort(key=lambda item: -item[0])
        return rows

    @pytest.mark.parametrize(
        "probs",
        [
            {"a": 0.9, "b": 0.8, "c": 0.3},
            {"a": 0.5, "b": 0.5, "c": 0.5},
            {"a": 1.0, "b": 0.7, "c": 0.0},
            {"a": 0.99, "b": 0.01, "c": 0.5, "d": 0.6},
        ],
    )
    def test_matches_brute_force_order(self, probs):
        ancestors = sorted(probs)
        enumerator = SubsetEnumerator("x", ancestors, probs)
        emitted = list(enumerator)
        expected = self._brute_force(ancestors, probs)
        assert len(emitted) == len(expected)
        # Probabilities must be emitted in non-increasing order and match
        # the brute-force multiset.
        values = [node.value for node in emitted]
        assert values == sorted(values, reverse=True)
        assert sorted(round(v, 12) for v in values) == sorted(
            round(p, 12) for p, _ in expected
        )
        # The top node must carry the argmax probability (ties at p=0.5
        # make several subsets equally optimal, so compare values).
        assert emitted[0].value == pytest.approx(expected[0][0])
        # Each emitted probability must equal the true product for its key.
        for node in emitted:
            p = 1.0
            for a in ancestors:
                p *= probs[a] if a in node.key.assumed else 1 - probs[a]
            assert node.value == pytest.approx(p)

    def test_no_ancestors_single_node(self):
        enumerator = SubsetEnumerator("x", [], {})
        nodes = list(enumerator)
        assert len(nodes) == 1
        assert nodes[0].key == BuildKey("x", frozenset())
        assert nodes[0].value == 1.0

    def test_lazy_top_k_of_large_space(self):
        """Only asking for the top few never materializes 2^40 subsets."""
        ancestors = [f"a{i}" for i in range(40)]
        probs = {a: 0.9 for a in ancestors}
        enumerator = SubsetEnumerator("x", ancestors, probs)
        top = [next(enumerator) for _ in range(5)]
        assert top[0].value == pytest.approx(0.9 ** 40)
        # Second-best flips exactly one ancestor.
        assert top[1].value == pytest.approx(0.9 ** 39 * 0.1)
        assert len(top[1].key.assumed) == 39

    def test_keys_unique(self):
        probs = {"a": 0.6, "b": 0.5, "c": 0.4}
        enumerator = SubsetEnumerator("x", list(probs), probs)
        keys = [node.key for node in enumerator]
        assert len(keys) == len(set(keys)) == 8
