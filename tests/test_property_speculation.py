"""Property-based tests for speculation probabilities and enumeration."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.speculation.probability import (
    estimate_commit_probabilities,
    p_needed,
)
from repro.speculation.tree import SubsetEnumerator, top_p_needed

probs_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=5,
)


class TestProbabilityProperties:
    @given(probs_strategy)
    @settings(max_examples=150)
    def test_p_needed_partitions_unity(self, probs):
        """Over all subsets of ancestors, P_needed sums to exactly 1."""
        ancestors = sorted(probs)
        total = sum(
            p_needed(subset, ancestors, probs)
            for size in range(len(ancestors) + 1)
            for subset in itertools.combinations(ancestors, size)
        )
        assert abs(total - 1.0) < 1e-9

    @given(probs_strategy)
    @settings(max_examples=150)
    def test_enumerator_emits_descending_and_complete(self, probs):
        ancestors = sorted(probs)
        enumerator = SubsetEnumerator("x", ancestors, probs)
        nodes = list(enumerator)
        assert len(nodes) == 2 ** len(ancestors)
        values = [node.value for node in nodes]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        assert abs(sum(values) - 1.0) < 1e-9
        # Keys are unique and each probability equals the subset product.
        assert len({node.key for node in nodes}) == len(nodes)
        for node in nodes:
            expected = 1.0
            for a in ancestors:
                p = min(1.0, max(0.0, probs[a]))
                expected *= p if a in node.key.assumed else 1.0 - p
            assert abs(node.value - expected) < 1e-9

    @given(probs_strategy)
    @settings(max_examples=150)
    def test_top_value_is_the_first_node_exactly(self, probs):
        """The merge ranks an unpopped change by ``top_p_needed``; that
        must be its enumerator's first value, bit for bit."""
        ancestors = sorted(probs)
        first = SubsetEnumerator("x", ancestors, probs).node_at(0)
        assert first.value == top_p_needed(probs[a] for a in ancestors)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                 min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_commit_probability_bounded_by_success(self, p_succs, last_p, conf):
        order = [f"c{i}" for i in range(len(p_succs))]
        ancestors = {cid: order[:i] for i, cid in enumerate(order)}
        table = dict(zip(order, p_succs))
        result = estimate_commit_probabilities(
            order, ancestors, lambda c: table[c], lambda a, b: conf
        )
        for cid in order:
            assert 0.0 <= result[cid] <= table[cid] + 1e-12
