"""Tests for ASCII plotting and change-stream persistence/replay."""

import io

import pytest

from dataclasses import replace

from repro.changes.truth import real_conflict
from repro.errors import WorkloadError
from repro.metrics.ascii_plot import heatmap, line_plot
from repro.workload.generator import WorkloadGenerator
from repro.workload.replay import dump_stream, load_stream, retime_stream
from repro.workload.scenarios import IOS_WORKLOAD


class TestLinePlot:
    def test_renders_all_series_markers(self):
        plot = line_plot(
            {"iOS": [(0, 0), (10, 1)], "Android": [(0, 1), (10, 0)]},
            width=30, height=8, title="cdf",
        )
        assert "cdf" in plot
        assert "o iOS" in plot and "x Android" in plot
        assert "o" in plot and "x" in plot

    def test_extremes_annotated(self):
        plot = line_plot({"s": [(1, 5), (9, 25)]}, width=20, height=5)
        assert "25" in plot and "5" in plot
        assert "1" in plot and "9" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_plot({})


class TestHeatmap:
    def test_values_and_shading(self):
        text = heatmap(
            ["r100", "r300"],
            ["w100", "w300"],
            {
                ("r100", "w100"): 1.0,
                ("r100", "w300"): 2.0,
                ("r300", "w100"): 3.0,
                ("r300", "w300"): 4.0,
            },
            title="normalized",
        )
        assert "normalized" in text
        for value in ("1.00", "4.00"):
            assert value in text
        assert "shade scale" in text

    def test_missing_cells_dashed(self):
        text = heatmap(["a"], ["x", "y"], {("a", "x"): 1.0})
        assert "-" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heatmap(["a"], ["x"], {})


class TestStreamReplay:
    def _stream(self, count=25, seed=31):
        generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=seed))
        return generator.stream(300, count)

    def test_roundtrip_preserves_everything(self):
        stream = self._stream()
        buffer = io.StringIO()
        dump_stream(stream, buffer)
        buffer.seek(0)
        loaded = load_stream(buffer)
        assert len(loaded) == len(stream)
        for (t0, c0), (t1, c1) in zip(stream, loaded):
            assert t0 == t1
            assert c0.change_id == c1.change_id
            assert c0.build_duration == c1.build_duration
            assert c0.features == c1.features
            assert c0.ground_truth == c1.ground_truth
            assert c0.developer == c1.developer

    def test_roundtrip_preserves_conflict_coins(self):
        stream = self._stream(count=40, seed=77)
        buffer = io.StringIO()
        dump_stream(stream, buffer)
        buffer.seek(0)
        loaded = load_stream(buffer)
        originals = [c for _, c in stream]
        copies = [c for _, c in loaded]
        for i in range(0, 30, 3):
            for j in range(i + 1, min(i + 6, len(originals))):
                assert real_conflict(originals[i], originals[j]) == real_conflict(
                    copies[i], copies[j]
                )

    def test_fullstack_stream_roundtrips(self, monorepo):
        change = monorepo.make_clean_change()
        buffer = io.StringIO()
        dump_stream([(2.5, change)], buffer)
        buffer.seek(0)
        ((arrival, loaded),) = load_stream(buffer)
        assert arrival == 2.5
        assert loaded.change_id == change.change_id
        assert list(loaded.patch) == list(change.patch)
        assert loaded.developer == change.developer

    def test_version_checked(self):
        # The version-1 JSON document has no CSV header: refused.
        buffer = io.StringIO('{"version": 99, "developers": {}, "changes": []}')
        with pytest.raises(WorkloadError):
            load_stream(buffer)
        # So is a row whose body is another change.
        buffer = io.StringIO()
        dump_stream(self._stream(count=2), buffer)
        header, first, second = buffer.getvalue().splitlines()
        swapped = first.split(",", 1)[0] + "," + second.split(",", 1)[1]
        with pytest.raises(WorkloadError):
            load_stream(io.StringIO("\n".join([header, swapped])))

    def test_retime_changes_rate_preserves_order(self):
        stream = self._stream(count=30)
        retimed = retime_stream(stream, rate_per_hour=60.0)
        times = [t for t, _ in retimed]
        assert times == sorted(times)
        # 30 changes at 60/h should span ~29 minutes.
        assert times[-1] - times[0] == pytest.approx(29.0, rel=0.01)
        assert [c.change_id for _, c in retimed] == [
            c.change_id for _, c in sorted(stream, key=lambda item: item[0])
        ]
        # submitted_at follows the new arrival times.
        for t, c in retimed:
            assert c.submitted_at == t

    def test_retime_validation(self):
        with pytest.raises(WorkloadError):
            retime_stream([], rate_per_hour=0.0)
        assert retime_stream([], rate_per_hour=10.0) == []

    def test_retimed_replay_is_strategy_comparable(self):
        """Two strategies on a retimed stream see identical ground truth."""
        from repro.changes.truth import potential_conflict
        from repro.experiments.runner import run_cell
        from repro.strategies.oracle import OracleStrategy

        stream = retime_stream(self._stream(count=30, seed=5), 120.0)
        first = run_cell(OracleStrategy(), stream, 16, potential_conflict)
        second = run_cell(OracleStrategy(), stream, 16, potential_conflict)
        assert first.turnarounds == second.turnarounds
