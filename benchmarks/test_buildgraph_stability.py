"""Section 5.2: build-graph stability and the analyzer fast path.

Paper: only 7.9 % of iOS and 1.6 % of backend changes alter build-graph
structure, so the conflict analyzer resolves almost every pairwise check
on the cheap name-intersection path.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import buildgraph_stability


@pytest.fixture(scope="module")
def result():
    outcome = buildgraph_stability.run(label_samples=4000, fullstack_changes=20)
    emit("buildgraph_stability", buildgraph_stability.format_result(outcome))
    return outcome


def test_reproduces_section52(result):
    assert result.label_rates["ios"] == pytest.approx(0.079, abs=0.02)
    assert result.label_rates["backend"] == pytest.approx(0.016, abs=0.01)
    # With 15% structural changes in the full-stack batch, (0.85)^2 ~ 72%
    # of pair checks resolve on the fast path (both sides content-only).
    assert result.fullstack_fast_path_rate > 0.6
    assert result.checks > 100


def test_benchmark_pairwise_analysis(benchmark, result):
    from repro.buildsys.executor import BuildContext
    from repro.conflict.analyzer import ConflictAnalyzer
    from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(4, 6, 8), fan_in=2), seed=31)
    changes = [monorepo.make_clean_change() for _ in range(10)]

    def analyze_all_pairs():
        analyzer = ConflictAnalyzer(
            BuildContext.load(monorepo.repo.snapshot().to_dict())
        )
        for i, first in enumerate(changes):
            for second in changes[i + 1 :]:
                analyzer.conflict(first, second)
        return analyzer.stats.checks

    benchmark(analyze_all_pairs)
