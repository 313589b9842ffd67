"""A passing step's result is built once per target declaration.

The executor stores a miss's ``(as run, cached)`` result pair in the
artifact cache as the evaluator hands it over; for a passing step that is
the target's own :attr:`Target.passing_entries`, shared by every digest
the target ever has.  These tests pin the sharing, that a failing step
never borrows it, and that counts, logs and cache contents stay what the
``get``/``put`` step loop produced.
"""

import pytest

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.executor import BuildContext, BuildExecutor, BuildReport
from repro.buildsys.steps import evaluate_step
from repro.journal.snapshots import capture_state, restore_service
from repro.vcs.patch import SnapshotOverlay

from .journal_harness import drive, make_service, mint_changes
from .make_golden_journal import GOLDEN_OPS


@pytest.fixture
def chain_snapshot():
    return {
        "base/BUILD": "target(name='base', srcs=['base.py'])",
        "base/base.py": "B\n",
        "mid/BUILD": "target(name='mid', srcs=['mid.py'], deps=['//base:base'])",
        "mid/mid.py": "M\n",
        "top/BUILD": (
            "target(name='top', srcs=['top.py'], deps=['//mid:mid'],"
            " steps=['compile', 'unit_test', 'integration_test'])"
        ),
        "top/top.py": "T\n",
    }


def _edit(base, delta):
    """``base`` with the sources in ``delta`` rewritten: a content-only
    derive keeps the graph, and so its Target objects."""
    return base.derive(SnapshotOverlay(base.snapshot, delta), delta)


def _entries_of(cache, digest, target):
    return [cache.entries[(digest, kind)] for kind in target.steps]


class TestPassingResultsAreShared:
    def test_two_digests_share_one_pair_per_step(self, chain_snapshot):
        executor = BuildExecutor()
        base = BuildContext.load(chain_snapshot)
        executor.build_between(BuildContext.load({}), base)
        edited = _edit(base, {"top/top.py": "T2\n"})
        report = executor.build_between(base, edited)
        top = base.graph.target("//top:top")
        old, new = base.hashes["//top:top"], edited.hashes["//top:top"]
        assert old != new
        first = _entries_of(executor.cache, old, top)
        second = _entries_of(executor.cache, new, top)
        for (run_a, cached_a), (run_b, cached_b) in zip(first, second):
            assert run_a is run_b and cached_a is cached_b
            assert not run_a.cached and cached_a.cached
        assert tuple(first) == top.passing_entries
        assert report.results == [run for run, _cached in top.passing_entries]

    def test_rebuilds_add_no_result_objects(self, chain_snapshot):
        executor = BuildExecutor()
        base = BuildContext.load(chain_snapshot)
        executor.build_between(BuildContext.load({}), base)
        interned = {
            id(result)
            for target in base.graph
            for pair in target.passing_entries
            for result in pair
        }
        reports = []
        for round_ in range(5):
            edited = _edit(base, {"base/base.py": f"B{round_}\n"})
            reports.append(executor.build_between(base, edited))
            reports.append(executor.build_between(base, edited))
        seen = {id(result) for report in reports for result in report.results}
        seen |= {
            id(result) for pair in executor.cache.entries.values() for result in pair
        }
        assert seen == interned
        assert all(report.success for report in reports)
        assert [report.steps_executed for report in reports] == [7, 0] * 5


class TestFailingStepsAllocate:
    def test_fail_directive_step_is_its_own(self, chain_snapshot):
        executor = BuildExecutor()
        base = BuildContext.load(chain_snapshot)
        executor.build_between(BuildContext.load({}), base)
        broken = _edit(base, {"mid/mid.py": "# FAIL:unit_test\n"})
        report = executor.build_between(base, broken)
        mid = base.graph.target("//mid:mid")
        interned = {id(result) for pair in mid.passing_entries for result in pair}
        failure = report.first_failure()
        assert failure.log == "//mid:mid unit_test: FAIL:unit_test directive present"
        assert id(failure) not in interned
        digest = broken.hashes["//mid:mid"]
        hit = executor.cache.get(digest, failure.spec.kind)
        assert hit.cached and not hit.passed and id(hit) not in interned

    def test_colliding_step_is_its_own(self, chain_snapshot):
        executor = BuildExecutor()
        base = BuildContext.load(chain_snapshot)
        executor.build_between(BuildContext.load({}), base)
        clash = _edit(
            base, {"base/base.py": "# CONFLICT:t\n", "top/top.py": "# CONFLICT:t\n"}
        )
        report = executor.build_between(base, clash)
        top = base.graph.target("//top:top")
        interned = {id(result) for pair in top.passing_entries for result in pair}
        failed = [r for r in report.results if not r.passed]
        assert [(r.spec.target, r.spec.kind.value) for r in failed] == [
            ("//top:top", "unit_test"),
            ("//top:top", "integration_test"),
        ]
        assert all(r.log.endswith("conflicting tokens t") for r in failed)
        assert not {id(r) for r in failed} & interned
        # The compile step still passes and is the target's own pair.
        compiled = report.results[-3]
        assert compiled.passed and compiled is top.passing_entries[0][0]


def _reference_run(cache, base, changed, stop_on_failure):
    """The ``get``/``put`` step loop, one fresh evaluation per step."""
    report = BuildReport()
    graph, hashes = changed.graph, changed.hashes
    for name in changed.affected_against(base):
        target = graph.target(name)
        report.targets_built.append(name)
        for kind in target.steps:
            result = cache.get(hashes[name], kind)
            if result is None:
                result = evaluate_step(graph, target, kind, changed.snapshot)
                cache.put(hashes[name], kind, result)
            report.append(result)
            if stop_on_failure and not result.passed:
                return report
    return report


def test_counts_and_logs_match_the_get_put_loop(chain_snapshot):
    """A scripted sequence — edits, a FAIL, a clash, reverts, repeats —
    through a small cache that evicts: every report and the cache itself
    equal what ``get``/``put`` give."""
    executor = BuildExecutor(ArtifactCache(capacity=6))
    reference = ArtifactCache(capacity=6)
    empty = BuildContext.load({})
    base = BuildContext.load(chain_snapshot)
    clash = {"base/base.py": "# CONFLICT:x\n", "mid/mid.py": "# CONFLICT:x\n"}
    script = [
        (empty, base, False),
        (base, _edit(base, {"top/top.py": "T2\n"}), False),
        (base, _edit(base, {"mid/mid.py": "# FAIL:compile\n"}), True),
        (base, _edit(base, {"mid/mid.py": "# FAIL:compile\n"}), False),
        (base, _edit(base, clash), False),
        (base, _edit(base, clash), True),
        (base, _edit(base, {"top/top.py": "T\n"}), False),
        (empty, base, False),
    ]
    for older, newer, stop in script:
        got = executor.build_between(older, newer, stop)
        want = _reference_run(reference, older, newer, stop)
        assert got.results == want.results
        assert got.targets_built == want.targets_built
        assert (got.steps_executed, got.steps_cached) == (
            want.steps_executed,
            want.steps_cached,
        )
        assert got.success == want.success
        assert (got.first_failure() is None) == (want.first_failure() is None)
        if want.first_failure() is not None:
            assert got.first_failure().log == want.first_failure().log
        assert list(executor.cache.items()) == list(reference.items())
        assert vars(executor.cache.stats) == vars(reference.stats)
    assert reference.stats.evictions > 0


def test_snapshot_round_trip_reproduces_items_and_order():
    service = make_service()
    drive(service, mint_changes(), GOLDEN_OPS)
    cache = service.controller.executor.cache
    assert len(cache) > 0
    twin = restore_service(
        capture_state(service), service.config, service.planner.strategy
    )
    restored = twin.controller.executor.cache
    assert list(restored.items()) == list(cache.items())
    assert list(restored.entries) == list(cache.entries)
    assert list(restored.entries.values()) == list(cache.entries.values())
