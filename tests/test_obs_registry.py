"""Unit tests for the metrics registry: kinds, labels, exposition."""

import pytest

from repro.errors import MetricsError
from repro.obs.registry import (
    DEFAULT_MINUTE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    UNIT_BUCKETS,
)


class TestCounters:
    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("builds_total", "Builds.")
        second = registry.counter("builds_total")
        assert first is second
        first.inc()
        second.inc(2.0)
        assert first.value == 3.0

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricsError):
            counter.inc(-1.0)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        ok = registry.counter("decisions_total", labels={"verdict": "committed"})
        bad = registry.counter("decisions_total", labels={"verdict": "rejected"})
        assert ok is not bad
        ok.inc()
        assert bad.value == 0.0


class TestKindAndLabelConsistency:
    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricsError, match="already registered as counter"):
            registry.gauge("x_total")

    def test_label_name_set_is_fixed_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("y_total", labels={"path": "fast"})
        with pytest.raises(MetricsError, match="uses labels"):
            registry.counter("y_total", labels={"mode": "fast"})
        with pytest.raises(MetricsError, match="uses labels"):
            registry.counter("y_total")  # no labels at all

    def test_cardinality_cap(self, monkeypatch):
        monkeypatch.setattr(MetricsRegistry, "MAX_SERIES_PER_METRIC", 3)
        registry = MetricsRegistry()
        for index in range(3):
            registry.counter("z_total", labels={"id": str(index)})
        with pytest.raises(MetricsError, match="cardinality"):
            registry.counter("z_total", labels={"id": "overflow"})
        # Existing series stay reachable after the cap trips.
        registry.counter("z_total", labels={"id": "1"}).inc()


class TestHistograms:
    def test_bucketing_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d_minutes", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 5.0, 50.0, 5000.0):
            hist.observe(value)
        assert hist.bucket_counts == [2, 1, 1, 1]  # last is +Inf
        assert hist.cumulative_counts() == [2, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(5056.2)
        assert hist.mean == pytest.approx(5056.2 / 5)

    def test_boundary_value_lands_in_le_bucket(self):
        hist = MetricsRegistry().histogram("b", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("h1", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("h2", buckets=(2.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("h3", buckets=(1.0, 1.0))

    def test_conflicting_rebuckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("h", buckets=(5.0,))
        # Omitting buckets reuses the registered bounds.
        assert registry.histogram("h").buckets == (1.0, 2.0)

    def test_default_bucket_sets_are_sane(self):
        assert list(DEFAULT_MINUTE_BUCKETS) == sorted(DEFAULT_MINUTE_BUCKETS)
        assert list(UNIT_BUCKETS) == sorted(UNIT_BUCKETS)
        assert UNIT_BUCKETS[-1] == 1.0


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("builds_total", "Builds run.").inc(3)
        registry.gauge("queue_depth", "Pending changes.").set(7)
        registry.counter(
            "decisions_total", "Decisions.", labels={"verdict": "committed"}
        ).inc(2)
        hist = registry.histogram("dur_minutes", "Durations.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(20.0)
        return registry

    def test_prometheus_text(self):
        text = self._populated().to_prometheus()
        assert "# HELP builds_total Builds run." in text
        assert "# TYPE builds_total counter" in text
        assert "builds_total 3" in text
        assert "# TYPE queue_depth gauge" in text
        assert 'decisions_total{verdict="committed"} 2' in text
        assert 'dur_minutes_bucket{le="1"} 1' in text
        assert 'dur_minutes_bucket{le="10"} 1' in text
        assert 'dur_minutes_bucket{le="+Inf"} 2' in text
        assert "dur_minutes_sum 20.5" in text
        assert "dur_minutes_count 2" in text

    def test_samples_are_printed_exactly(self):
        registry = MetricsRegistry()
        registry.counter("steps_total").inc(1_234_567)
        registry.counter("minutes_total").inc(0.1)
        registry.counter("minutes_total").inc(0.2)
        registry.gauge("up").set(float("inf"))
        registry.gauge("down").set(float("-inf"))
        registry.gauge("unknown").set(float("nan"))
        hist = registry.histogram("d_minutes", buckets=(1.0,))
        hist.observe(1e7 + 0.25)
        lines = set(registry.to_prometheus().splitlines())
        assert "steps_total 1234567" in lines  # {:g} printed 1.23457e+06
        assert "minutes_total 0.30000000000000004" in lines
        assert "up +Inf" in lines
        assert "down -Inf" in lines
        assert "unknown NaN" in lines
        assert "d_minutes_sum 10000000.25" in lines

    def test_json_dump(self):
        dump = self._populated().to_json()
        assert dump["builds_total"]["kind"] == "counter"
        assert dump["builds_total"]["series"][0]["value"] == 3.0
        series = dump["decisions_total"]["series"][0]
        assert series["labels"] == {"verdict": "committed"}
        hist = dump["dur_minutes"]["series"][0]
        assert hist["buckets"] == [1.0, 10.0]
        assert hist["counts"] == [1, 0, 1]

    def test_registry_inventory(self):
        registry = self._populated()
        assert "builds_total" in registry
        assert "missing" not in registry
        assert len(registry) == 4  # four series across four families
        assert registry.names() == sorted(registry.names())
