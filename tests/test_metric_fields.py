"""One counter per fact: a count a stats dataclass keeps is its series.

Fields declared with ``metric_field`` are exposed on the recorder and
read whenever ``/metrics`` or a trace file is rendered, so a series and
its field cannot drift apart — not across a snapshot restore, not under
a build backend — and nothing may push a second copy of one.
"""

import os
from dataclasses import dataclass, fields

import pytest

from repro.errors import MetricsError
from repro.journal.sink import JournalWriter
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import MetricsRegistry, metric_field
from repro.parallel.workload import mint_cell
from repro.predictor.predictors import StaticPredictor
from repro.serve import build_journal_service
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository

from .make_golden_journal import GOLDEN_DIR

#: Series that only repeated another series, and are gone.
REMOVED = (
    "executor_steps_executed_total",
    "executor_steps_cached_total",
    "speculation_selection_rounds_total",
    "speculation_pending_changes",
    "speculation_tree_size",
    "service_mainline_commits_total",
    "executor_parallel_dispatched_total",
)


def exposed(registry, stats):
    """``(series name, sample, field value)`` per ``metric_field`` of ``stats``."""
    out = []
    for spec in fields(stats):
        declared = spec.metadata.get("metric")
        if declared is not None:
            name, labels, _ = declared
            sample = registry.counter(name, labels=labels).value
            out.append((name, sample, getattr(stats, spec.name)))
    return out


def assert_exposed(registry, stats):
    samples = exposed(registry, stats)
    assert samples, f"{type(stats).__name__} exposes nothing"
    for name, sample, value in samples:
        assert sample == value, name
        assert isinstance(sample, float)


@dataclass
class _Stats:
    hits: int = metric_field("hits_total", "Hits.")
    ratio: float = metric_field(
        "ratio_total", "Ratio.", labels={"kind": "a"}, default=0.0
    )
    misses: int = 0


class TestExpose:
    def test_series_read_the_field_live(self):
        registry = MetricsRegistry()
        stats = _Stats()
        registry.expose(stats)
        stats.hits += 3
        stats.ratio += 0.5
        assert registry.counter("hits_total").value == 3.0
        assert registry.to_json()["hits_total"] == {
            "kind": "counter",
            "help": "Hits.",
            "series": [{"labels": {}, "value": 3.0}],
        }
        text = registry.to_prometheus()
        assert "hits_total 3\n" in text
        assert 'ratio_total{kind="a"} 0.5\n' in text
        assert "misses" not in text  # a plain field is not exposed

    def test_exposing_again_rebinds(self):
        registry = MetricsRegistry()
        registry.expose(_Stats(hits=2))
        registry.expose(_Stats(hits=5))
        assert registry.counter("hits_total").value == 5.0
        assert len(registry) == 2

    def test_a_name_is_exposed_or_pushed_never_both(self):
        registry = MetricsRegistry()
        registry.expose(_Stats())
        with pytest.raises(MetricsError, match="exposed from _Stats.hits"):
            registry.counter("hits_total").inc()
        with pytest.raises(MetricsError, match="exposed, not pushed"):
            registry.counter("ratio_total", labels={"kind": "b"})
        pushed = MetricsRegistry()
        pushed.counter("hits_total").inc()
        with pytest.raises(MetricsError, match="pushed, not exposed"):
            pushed.expose(_Stats())

    def test_the_null_recorder_exposes_nothing(self):
        NULL_RECORDER.expose(_Stats())
        assert NULL_RECORDER.prometheus_text() == ""


@pytest.mark.parametrize("backend", [None, "process:1"])
def test_every_exposed_series_is_its_field(backend):
    files, changes = mint_cell(seed=7, count=12)
    recorder = Recorder()
    core = CoreService(
        Repository(files),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(workers=8, build_backend=backend),
        recorder=recorder,
    )
    try:
        for change in changes:
            core.submit(change)
        assert len(core.pump()) == 12
    finally:
        core.close()
    registry = recorder.registry
    for stats in (
        core.planner.stats,
        core.controller.stats,
        core.analyzer.stats,
        core.planner.strategy.engine.stats,
    ):
        assert_exposed(registry, stats)
    assert core.planner.stats.builds_started > 0
    for name in REMOVED:
        assert name not in registry, name
    with pytest.raises(MetricsError):
        recorder.counter("planner_builds_started_total").inc()


def test_restored_counts_reach_metrics():
    """A snapshot restore replaces the planner's stats; the series follow."""
    core, _ = build_journal_service(GOLDEN_DIR)
    try:
        registry = core.recorder.registry
        assert_exposed(registry, core.planner.stats)
        assert registry.counter("planner_builds_started_total").value == 7
        assert registry.counter("planner_plan_calls_total").value == (
            core.planner.stats.plan_calls
        ) > 0
    finally:
        core.close()


def test_journal_writer_counts_are_its_series(tmp_path):
    files, changes = mint_cell(seed=7, count=6)
    recorder = Recorder()
    writer = JournalWriter(
        str(tmp_path / "journal"), fsync=True, snapshot_every=4, recorder=recorder
    )
    core = CoreService(
        Repository(files),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(workers=8, journal=writer),
        recorder=recorder,
    )
    for change in changes:
        core.submit(change)
        core.pump()  # each pump ends quiescent: a snapshot when one is due
    writer.close()
    core.close()
    assert writer.snapshots > 1
    assert writer.fsyncs == writer.appends
    assert writer.bytes_written == os.path.getsize(writer.path)
    assert [name for name, _, _ in exposed(recorder.registry, writer)] == [
        "journal_appends_total",
        "journal_bytes_written_total",
        "journal_fsyncs_total",
        "journal_snapshots_total",
    ]
    assert_exposed(recorder.registry, writer)
