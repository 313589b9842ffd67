"""Unit tests for metrics: percentiles, CDFs, collectors."""

import pytest

from repro.metrics.ascii_plot import sparkline
from repro.metrics.cdf import Cdf
from repro.metrics.collector import GreennessTracker
from repro.metrics.percentile import summarize


class TestPercentiles:

    def test_summary_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert set(summary) == {"p50", "p95", "p99", "mean", "count"}
        assert summary["count"] == 3

    def test_summarize_empty_is_explicit(self):
        with pytest.raises(ValueError, match="empty sample"):
            summarize([])

    def test_summarize_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            summarize([1.0, float("inf"), 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            summarize([float("nan")])

    def test_summarize_single_sample(self):
        summary = summarize([7.0])
        assert summary["p50"] == summary["p99"] == summary["mean"] == 7.0
        assert summary["count"] == 1


class TestCdf:
    def test_at_and_quantile(self):
        cdf = Cdf([1, 2, 3, 4])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2) == 0.5
        assert cdf.at(10) == 1.0
        assert cdf.quantile(0.5) == pytest.approx(2.5)

    def test_series(self):
        cdf = Cdf([10, 20, 30])
        assert cdf.series([5, 15, 35]) == [0.0, pytest.approx(1 / 3), 1.0]

    def test_steps(self):
        steps = Cdf([3, 1]).steps()
        assert steps == [(1.0, 0.5), (3.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])
        with pytest.raises(ValueError):
            Cdf([1]).quantile(2.0)


class TestSparkline:
    def test_empty_is_empty_string(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_block(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_is_monotone(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert list(line) == sorted(line)
        assert line[0] != line[-1]

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_explicit_bounds_clamp(self):
        line = sparkline([-10.0, 100.0], low=0.0, high=1.0)
        assert len(line) == 2


class TestGreennessTracker:
    def test_green_fraction(self):
        tracker = GreennessTracker(start=0.0, green=True)
        tracker.record(60.0, green=False)
        tracker.record(120.0, green=True)
        tracker.close(240.0)
        assert tracker.green_fraction() == pytest.approx(0.75)

    def test_hourly_rates(self):
        tracker = GreennessTracker(start=0.0, green=True)
        tracker.record(90.0, green=False)   # red from 1.5h
        tracker.record(150.0, green=True)   # green again at 2.5h
        tracker.close(240.0)
        rates = tracker.hourly_green_rate()
        assert rates == [
            pytest.approx(100.0),
            pytest.approx(50.0),
            pytest.approx(50.0),
            pytest.approx(100.0),
        ]

    def test_redundant_transitions_collapsed(self):
        tracker = GreennessTracker()
        tracker.record(10.0, green=True)   # no-op
        tracker.record(20.0, green=False)
        tracker.record(25.0, green=False)  # no-op
        tracker.close(30.0)
        assert tracker.green_fraction() == pytest.approx(20.0 / 30.0)

    def test_must_close_before_reading(self):
        tracker = GreennessTracker()
        with pytest.raises(ValueError):
            tracker.green_fraction()

    def test_out_of_order_rejected(self):
        tracker = GreennessTracker(start=100.0)
        with pytest.raises(ValueError):
            tracker.record(50.0, green=False)
