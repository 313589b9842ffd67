"""Property-based tests for queues and metrics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.conflict.conflict_graph import ConflictGraph
from repro.metrics.cdf import Cdf
from repro.metrics.collector import GreennessTracker

DEV = Developer("dev1")


def make_change(index):
    change = Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(target_names=frozenset({f"//t{index}"})),
    )
    change.submitted_at = float(index)
    return change


class TestQueueProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_fifo_order_preserved_under_interleaved_removals(self, ops):
        """True = enqueue a new change; False = remove the current head.

        The conflict graph is the pending queue; every change conflicts
        here, so the edges churn with the order."""
        queue = ConflictGraph(lambda a, b: True)
        reference = []
        counter = 0
        for should_enqueue in ops:
            if should_enqueue or not reference:
                change = make_change(counter)
                counter += 1
                queue.add(change)
                reference.append(change)
            else:
                victim = reference.pop(0)
                queue.remove(victim.change_id)
        assert [c.change_id for c in queue] == [c.change_id for c in reference]
        assert queue.in_order() == [c.change_id for c in reference]
        assert len(queue) == len(reference)
        if reference:
            tail = reference[-1].change_id
            assert queue.ancestors(tail) == [c.change_id for c in reference[:-1]]


class TestCdfProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=80))
    @settings(max_examples=80)
    def test_cdf_is_monotone_and_bounded(self, samples):
        cdf = Cdf(samples)
        grid = sorted(set(samples))
        values = cdf.series(grid)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values)
        assert cdf.at(max(samples)) == 1.0
        assert cdf.at(min(samples) - 1.0) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=2, max_size=50),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_quantile_within_sample_range(self, samples, q):
        cdf = Cdf(samples)
        value = cdf.quantile(q)
        assert min(samples) <= value <= max(samples)


class TestGreennessProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=100,
                                        allow_nan=False), st.booleans()),
                    max_size=30))
    @settings(max_examples=60)
    def test_fraction_bounded_and_consistent(self, deltas):
        tracker = GreennessTracker(start=0.0, green=True)
        now = 0.0
        for delta, green in deltas:
            now += delta
            tracker.record(now, green)
        tracker.close(now + 1.0)
        fraction = tracker.green_fraction()
        assert 0.0 <= fraction <= 1.0
        hourly = tracker.hourly_green_rate()
        assert all(0.0 <= h <= 100.0 + 1e-9 for h in hourly)
