"""Smoke tests for the experiment modules (tiny sizes; the benchmark
suite runs them at paper scale)."""

import os
import subprocess
import sys

import pytest

from repro.changes import truth
from repro.experiments import (
    buildgraph_stability,
    figure01,
    figure02,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    model_accuracy,
    wide_vs_deep,
)
from repro.experiments.runner import (
    all_conflict,
    format_table,
    make_stream,
    oracle_ratios,
    run_cell,
    strategy_factories,
)
from repro.strategies.oracle import OracleStrategy

#: One figure-12 cell, printed.
FIGURE12_CELL = (
    "from repro.experiments import figure12\n"
    "print(figure12.format_result(figure12.run(rates=(300,), workers=(100,), "
    "changes_per_cell=100, strategies=('SubmitQueue',))))\n"
)


def test_real_conflict_memo_stays_bounded_across_runs(monkeypatch, capsys):
    """The process-global real-conflict memo keeps every run's pairs
    (each run mints new change ids).  Run one figure-12 cell twice in one
    process with a bound below one run's pairs: the memo stays within it,
    and both runs print what a fresh interpreter prints."""
    monkeypatch.setattr(truth, "REAL_CONFLICT_CACHE_CAPACITY", 64)
    outputs = []
    for _ in range(2):
        exec(FIGURE12_CELL, {})
        outputs.append(capsys.readouterr().out)
        assert 0 < len(truth._REAL_CONFLICT_CACHE) <= 64
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fresh = subprocess.run(
        [sys.executable, "-c", FIGURE12_CELL],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout
    assert outputs == [fresh, fresh]


class TestRunner:
    def test_make_stream_reproducible(self):
        a = make_stream(200, 10, seed=1)
        b = make_stream(200, 10, seed=1)
        assert [t for t, _ in a] == [t for t, _ in b]

    def test_run_cell_decides_everything(self):
        stream = make_stream(200, 30, seed=2)
        result = run_cell(OracleStrategy(), stream, 32)
        assert result.committed + result.rejected == 30

    def test_all_conflict_predicate(self):
        stream = make_stream(200, 3, seed=3)
        changes = [c for _, c in stream]
        assert all_conflict(changes[0], changes[1])
        assert not all_conflict(changes[0], changes[0])

    def test_cell_summary_normalization(self):
        stream = make_stream(200, 25, seed=4)
        oracle = run_cell(OracleStrategy(), stream, 32)
        normalized = oracle_ratios(oracle, oracle)
        assert normalized["p50"] == pytest.approx(1.0)
        assert normalized["throughput"] == pytest.approx(1.0)

    def test_strategy_factories_cover_paper_names(self):
        factories = strategy_factories()
        assert set(factories) == {
            "SubmitQueue", "Speculate-all", "Optimistic", "Single-Queue",
        }
        for factory in factories.values():
            strategy = factory()
            assert hasattr(strategy, "select")

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert len(set(len(line) for line in lines[1:])) <= 2


class TestFigureModules:
    def test_figure01_small(self):
        result = figure01.run(concurrency=(2, 4), groups=30, pool_size=150)
        assert set(result.by_platform) == {"iOS", "Android"}
        assert all(0.0 <= p <= 1.0 for s in result.by_platform.values() for p in s)
        assert figure01.format_result(result)

    def test_figure02_small(self):
        result = figure02.run(staleness_hours=(1, 50), trials=20)
        for series in result.by_platform.values():
            assert series[1] >= series[0] - 0.1
        assert figure02.format_result(result)

    def test_figure09_small(self):
        result = figure09.run(samples=2000)
        assert result.analytic["iOS"] == sorted(result.analytic["iOS"])
        assert figure09.format_result(result)

    def test_figure10_small(self):
        result = figure10.run(rates=(200,), changes_per_rate=40, workers=64)
        assert 200 in result.cdf_by_rate
        assert figure10.format_result(result)

    def test_figure11_small(self):
        result = figure11.run(
            rates=(200,), workers=(32,), changes_per_cell=30,
            strategies=("Speculate-all",),
        )
        cell = (200, 32)
        assert result.normalized["Speculate-all"][cell]["p50"] > 0
        assert figure11.format_result(result, "p50")

    def test_figure12_small(self):
        result = figure12.run(
            rates=(200,), workers=(32,), changes_per_cell=30,
            strategies=("Single-Queue",),
        )
        assert 0 < result.normalized_throughput["Single-Queue"][(200, 32)] <= 1.5
        assert figure12.format_result(result)

    def test_figure13_small(self):
        result = figure13.run(
            rates=(200,), workers=(32,), changes_per_cell=25,
            strategies=("Speculate-all",),
        )
        assert (200, 32) in result.improvement["Oracle"]
        assert figure13.format_result(result)

    def test_figure14_small(self):
        result = figure14.run(days=1.0)
        assert 0.0 <= result.green_fraction <= 1.0
        assert len(result.hourly_green_percent) == 24
        assert figure14.format_result(result)

    def test_model_accuracy_small(self):
        result = model_accuracy.run(history_size=600, rfe_keep=5)
        assert 0.5 <= result.report.success_metrics.accuracy <= 1.0
        assert len(result.rfe_kept) == 5
        assert model_accuracy.format_result(result)

    def test_buildgraph_stability_small(self):
        result = buildgraph_stability.run(label_samples=500, fullstack_changes=8)
        assert 0.0 <= result.fullstack_fast_path_rate <= 1.0
        assert result.checks == 8 * 7 // 2
        assert buildgraph_stability.format_result(result)

    def test_wide_vs_deep_small(self):
        result = wide_vs_deep.run(changes=40, workers=64)
        assert set(result.improvement) == {"deep (iOS)", "wide (backend)"}
        for value in result.improvement.values():
            assert -1.0 <= value <= 1.0
        assert wide_vs_deep.format_result(result)
