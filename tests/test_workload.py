"""Unit tests for workload generation (label mode and full-stack)."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.buildsys.executor import BuildExecutor
from repro.changes.truth import (
    module_overlap,
    potential_conflict,
    real_conflict,
)
from repro.errors import WorkloadError
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo
from repro.workload.scenarios import BACKEND_WORKLOAD, IOS_WORKLOAD

from .oracles import graph_structure


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(n_developers=0)
        with pytest.raises(WorkloadError):
            WorkloadConfig(base_success_rate=1.5)
        with pytest.raises(WorkloadError):
            WorkloadConfig(real_conflict_rate=-0.1)


class TestGenerator:
    def test_reproducible_with_seed(self):
        a = WorkloadGenerator(replace(IOS_WORKLOAD, seed=7)).history(20)
        b = WorkloadGenerator(replace(IOS_WORKLOAD, seed=7)).history(20)
        for x, y in zip(a, b):
            assert x.ground_truth.target_names == y.ground_truth.target_names
            assert x.ground_truth.individually_ok == y.ground_truth.individually_ok
            assert x.build_duration == y.build_duration

    def test_changes_carry_features_and_durations(self):
        change = WorkloadGenerator(IOS_WORKLOAD).make_change(submitted_at=5.0)
        assert change.submitted_at == 5.0
        assert change.build_duration is not None
        for feature in ("n_affected_targets", "n_lines_added",
                        "initial_tests_passed"):
            assert feature in change.features
        assert change.ground_truth is not None
        assert change.ground_truth.module_names <= change.ground_truth.target_names

    def test_success_rate_near_configured(self):
        generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=21))
        history = generator.history(2000)
        rate = sum(c.ground_truth.individually_ok for c in history) / len(history)
        assert abs(rate - IOS_WORKLOAD.base_success_rate) < 0.05

    def test_buildgraph_change_rate_near_configured(self):
        generator = WorkloadGenerator(replace(BACKEND_WORKLOAD, seed=22))
        history = generator.history(3000)
        rate = sum(c.ground_truth.changes_build_graph for c in history) / len(history)
        assert rate == pytest.approx(BACKEND_WORKLOAD.buildgraph_change_rate, abs=0.01)

    def test_ios_denser_than_backend(self):
        rnd = random.Random(3)

        def density(config):
            history = WorkloadGenerator(replace(config, seed=23)).history(800)
            pairs = [
                (history[rnd.randrange(800)], history[rnd.randrange(800)])
                for _ in range(3000)
            ]
            return sum(potential_conflict(a, b) for a, b in pairs) / len(pairs)

        assert density(IOS_WORKLOAD) > 2 * density(BACKEND_WORKLOAD)

    def test_real_conflicts_subset_of_module_overlaps(self):
        generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=24))
        history = generator.history(300)
        rnd = random.Random(4)
        for _ in range(2000):
            a = history[rnd.randrange(300)]
            b = history[rnd.randrange(300)]
            if real_conflict(a, b):
                assert module_overlap(a, b)
                assert potential_conflict(a, b)

    def test_stream_is_time_ordered(self):
        stream = WorkloadGenerator(replace(IOS_WORKLOAD, seed=25)).stream(300, 50)
        times = [t for t, _ in stream]
        assert times == sorted(times)
        for time, change in stream:
            assert change.submitted_at == time

    def test_durations_within_model_range(self):
        generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=26))
        history = generator.history(500)
        durations = [c.build_duration for c in history]
        assert min(durations) >= IOS_WORKLOAD.durations.minimum
        assert max(durations) <= IOS_WORKLOAD.durations.maximum


class TestSyntheticMonorepo:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MonorepoSpec(layers=())
        with pytest.raises(ValueError):
            MonorepoSpec(layers=(2, 0))
        with pytest.raises(ValueError):
            MonorepoSpec(fan_in=0)

    def test_layered_graph_shape(self, monorepo):
        graph = monorepo.graph
        assert len(graph) == 3 + 4 + 5
        assert graph.depth() == 3
        # Layer-0 targets have no deps; the rest do.
        for name in monorepo.target_names(layer=0):
            assert graph.target(name).deps == ()
        for name in monorepo.target_names(layer=2):
            assert len(graph.target(name).deps) == 2

    def test_full_build_green(self, monorepo):
        report = BuildExecutor().build(monorepo.repo.snapshot())
        assert report.success

    def test_clean_change_passes_full_build(self, monorepo):
        change = monorepo.make_clean_change()
        merged = change.patch.apply(monorepo.repo.snapshot())
        assert BuildExecutor().build(merged).success

    def test_broken_change_fails_full_build(self, monorepo):
        change = monorepo.make_broken_change(step="compile")
        merged = change.patch.apply(monorepo.repo.snapshot())
        assert not BuildExecutor().build(merged).success

    def test_conflicting_pair_semantics(self, monorepo):
        first, second = monorepo.make_conflicting_pair()
        snapshot = monorepo.repo.snapshot()
        executor = BuildExecutor()
        assert executor.build(first.patch.apply(snapshot)).success
        assert executor.build(second.patch.apply(snapshot)).success
        combined = second.patch.apply(first.patch.apply(snapshot))
        assert not executor.build(combined).success

    def test_structural_change_alters_graph(self, monorepo):
        from repro.buildsys.loader import load_build_graph

        change = monorepo.make_structural_change()
        merged = change.patch.apply(monorepo.repo.snapshot())
        new_graph = load_build_graph(merged)
        assert graph_structure(monorepo.graph) != graph_structure(new_graph)
        assert BuildExecutor().build(merged).success
