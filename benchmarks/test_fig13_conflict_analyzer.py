"""Figure 13: P95 turnaround improvement from the conflict analyzer.

Paper (section 8.4): the analyzer improves the Oracle's P95 turnaround by
up to ~60 %; SubmitQueue and Speculate-all benefit substantially too;
Optimistic gains only ~20 % (Zuul's global pipeline mostly ignores the
conflict structure) and Single-Queue's improvement does not grow with
workers.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import figure13

WORKERS = (100, 300)


@pytest.fixture(scope="module")
def result(trained_predictor):
    predictor, _ = trained_predictor
    outcome = figure13.run(
        rates=(300,),
        workers=WORKERS,
        changes_per_cell=220,
        strategies=("SubmitQueue", "Speculate-all", "Optimistic", "Single-Queue"),
        predictor=predictor,
    )
    emit("fig13_conflict_analyzer", figure13.format_result(outcome))
    return outcome


def test_reproduces_figure13_shape(result):
    for workers in WORKERS:
        cell = (300, workers)
        oracle = result.improvement["Oracle"][cell]
        submitqueue = result.improvement["SubmitQueue"][cell]
        speculate = result.improvement["Speculate-all"][cell]
        optimistic = result.improvement["Optimistic"][cell]
        # The analyzer buys the speculating strategies a lot...
        assert oracle > 0.15, "paper: up to ~60% for Oracle"
        assert submitqueue > 0.3
        assert speculate > 0.2
        # ...and Optimistic much less (paper: ~20%; Zuul's global pipeline
        # ignores conflict structure entirely in our faithful model).
        assert optimistic < oracle
        assert optimistic < 0.45
    # "Up to" 60%: the most contended cell shows the biggest win.
    assert result.improvement["Oracle"][(300, WORKERS[0])] > 0.3


def test_incremental_analyzer_counters():
    """Surface the carry-over effectiveness counters (section 5.2 at scale).

    Drives a real ConflictAnalyzer through a pending set and several
    mainline advances, then emits how much hashing and re-analysis the
    incremental machinery avoided.
    """
    from repro.buildsys.executor import BuildContext
    from repro.conflict.analyzer import ConflictAnalyzer
    from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

    mono = SyntheticMonorepo(MonorepoSpec(layers=(6, 12, 24), fan_in=2), seed=9)
    analyzer = ConflictAnalyzer(BuildContext.load(mono.repo.snapshot().to_dict()))
    pending = [mono.make_clean_change() for _ in range(12)]
    for change in pending:
        analyzer.analyze(change)
    for i, first in enumerate(pending):
        for second in pending[i + 1:]:
            analyzer.conflict(first, second)

    # Commit four of the pending changes one by one, advancing the
    # analyzer across each mainline move instead of rebuilding it.
    for change in pending[:4]:
        mono.repo.commit_to_mainline(change.patch)
        analyzer.forget(change.change_id)
        analyzer.advance_base(
            analyzer.base.derive_stack((change.patch,)).as_root(),
            change.patch.paths,
        )

    stats = analyzer.stats
    emit(
        "fig13_incremental_stats",
        "fig13 conflict analyzer: incremental effectiveness\n"
        f"  analyses              {stats.analyses}\n"
        f"  targets rehashed      {stats.targets_rehashed} / {stats.targets_total}"
        f" ({stats.rehash_fraction:.1%})\n"
        f"  head advances         {stats.head_advances}\n"
        f"  analyses revalidated  {stats.analyses_revalidated}\n"
        f"  analyses recomputed   {stats.analyses_recomputed}"
        f" (revalidation rate {stats.revalidation_rate:.1%})\n"
        f"  pair checks           {stats.checks} ({stats.fast_path_rate:.1%} fast path)",
    )
    # Dirty-set hashing must be doing real work: far fewer hashes than a
    # from-scratch analyzer would compute, and at least some carried
    # analyses surviving the advances.
    assert stats.rehash_fraction < 0.6
    assert stats.analyses_revalidated > 0
    assert stats.head_advances == 4


def test_benchmark_analyzer_off_cell(benchmark, result):
    from repro.experiments.runner import all_conflict, make_stream, run_cell
    from repro.strategies.oracle import OracleStrategy

    stream = make_stream(300, 60, seed=77)
    benchmark(run_cell, OracleStrategy(), stream, 100, all_conflict)
