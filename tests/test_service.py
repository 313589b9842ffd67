"""Integration tests for the SubmitQueue service facade (full-stack)."""

import multiprocessing

import pytest

from repro.changes.truth import potential_conflict
from repro.errors import (
    DuplicateChangeError,
    ParallelExecutionError,
    ReproError,
    UnknownChangeError,
)
from repro.journal import JournalWriter, fingerprint_digest, recover
from repro.journal.sink import events_path
from repro.parallel.workload import mint_cell
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import StaticPredictor
from repro.service.api import SubmitQueueService
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import ChangeState
from repro.vcs.repository import Repository
from repro.workload.generator import WorkloadGenerator
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo
from repro.workload.scenarios import IOS_WORKLOAD


@pytest.fixture
def monorepo():
    return SyntheticMonorepo(MonorepoSpec(layers=(3, 4), fan_in=2), seed=7)


@pytest.fixture
def service(monorepo):
    core = CoreService(
        repo=monorepo.repo,
        strategy=SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
        config=CoreServiceConfig(workers=4),
    )
    return SubmitQueueService(core)


class TestLanding:
    def test_clean_change_lands_and_mainline_stays_green(self, service, monorepo):
        change = monorepo.make_clean_change()
        status = service.land_change(change, wait=True)
        assert status.is_landed
        assert status.turnaround is not None and status.turnaround > 0
        assert service.mainline_is_green()
        # The patch is actually on the mainline now.
        path = change.patch.paths.pop()
        assert monorepo.repo.snapshot()[path] == change.patch.op_for(path).content

    def test_broken_change_rejected_mainline_untouched(self, service, monorepo):
        head_before = monorepo.repo.head()
        change = monorepo.make_broken_change()
        status = service.land_change(change, wait=True)
        assert status.state is ChangeState.REJECTED
        assert monorepo.repo.head() == head_before
        assert service.mainline_is_green()

    def test_conflicting_pair_second_rejected(self, service, monorepo):
        first, second = monorepo.make_conflicting_pair()
        service.land_change(first)
        service.land_change(second)
        service.process()
        assert service.status(first.change_id).state is ChangeState.COMMITTED
        assert service.status(second.change_id).state is ChangeState.REJECTED
        assert service.mainline_is_green()

    def test_independent_changes_all_land(self, service, monorepo):
        targets = monorepo.target_names(layer=0)
        changes = [monorepo.make_clean_change(t) for t in targets[:3]]
        for change in changes:
            service.land_change(change)
        assert service.queue_depth() == 3
        assert set(service.pending_ids()) == {c.change_id for c in changes}
        service.process()
        for change in changes:
            assert service.status(change.change_id).is_landed
        assert service.mainline_is_green()

    def test_sequential_lands_rebase_over_each_other(self, service, monorepo):
        target = monorepo.target_names(layer=0)[0]
        first = monorepo.make_clean_change(target)
        status = service.land_change(first, wait=True)
        assert status.is_landed
        # Second change to the same target, created after the first landed.
        second = monorepo.make_clean_change(target)
        status = service.land_change(second, wait=True)
        assert status.is_landed
        assert len(monorepo.repo.mainline_history()) == 3  # root + 2


def _land_then_mint_stale(service, monorepo):
    """Land one edit of a file; return a second edit cut before it landed."""
    target = monorepo.target_names(layer=0)[0]
    landed = monorepo.make_clean_change(target)
    stale = monorepo.make_clean_change(target)
    assert landed.patch.paths == stale.patch.paths
    assert service.land_change(landed, wait=True).is_landed
    return stale


class TestStalePatch:
    """A MODIFY cut from pre-landing content is rejected, never raised."""

    @pytest.mark.parametrize("other_pending", [False, True])
    def test_rejected_as_merge_conflict_in_both_queue_states(
        self, service, monorepo, other_pending
    ):
        stale = _land_then_mint_stale(service, monorepo)
        other = monorepo.make_clean_change(monorepo.target_names(layer=0)[1])
        if other_pending:
            service.land_change(other)
        service.land_change(stale)
        service.process()
        status = service.status(stale.change_id)
        assert status.state is ChangeState.REJECTED
        assert status.reason.startswith("merge conflict")
        if other_pending:
            assert service.status(other.change_id).is_landed
        assert service.queue_depth() == 0
        assert service.mainline_is_green()

    def test_journal_replays_clean(self, monorepo, tmp_path):
        writer = JournalWriter(str(tmp_path / "journal"))
        core = CoreService(
            repo=monorepo.repo,
            strategy=SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
            config=CoreServiceConfig(workers=4, journal=writer),
        )
        service = SubmitQueueService(core)
        stale = _land_then_mint_stale(service, monorepo)
        service.land_change(
            monorepo.make_clean_change(monorepo.target_names(layer=0)[1])
        )
        service.land_change(stale)
        service.process()
        writer.close()
        assert service.status(stale.change_id).state is ChangeState.REJECTED
        report = recover(str(tmp_path / "journal"), attach=False)
        assert fingerprint_digest(report.service) == fingerprint_digest(core)


class TestOneBase:
    """The analyzer borrows the build controller's base context."""

    def test_analyzer_base_is_the_controllers_after_a_commit(self, service, monorepo):
        core = service._core
        targets = monorepo.target_names(layer=0)
        assert core.analyzer is None  # nobody has asked it anything yet
        service.land_change(monorepo.make_clean_change(targets[0]), wait=True)
        assert monorepo.repo.mainline_length() == 2
        # The next conflict query adopts the context the commit advanced.
        for name in targets[1:3]:
            service.land_change(monorepo.make_clean_change(name))
        assert core.analyzer.stats.head_advances == 1
        assert core.analyzer.base is core.controller.base_context()
        service.process()
        # One load for the whole run: every head after the first was
        # derived from it, for builds and analyses alike.
        assert core.controller.stats.base_context_loads == 1
        assert core.controller.stats.base_context_advances == 3

    @pytest.mark.parametrize("backend", [None, "process:1"])
    def test_only_a_build_counts_a_base_reuse(self, backend):
        """Shipping the base snapshot to workers reads the base context; it
        reuses it for no build, since under a backend the parent runs none."""
        files, changes = mint_cell(seed=7, count=12)
        core = CoreService(
            Repository(files),
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
            config=CoreServiceConfig(workers=8, build_backend=backend),
        )
        try:
            for change in changes:
                core.submit(change)
            assert len(core.pump()) == 12
        finally:
            core.close()
        stats = core.controller.stats
        assert stats.base_context_loads == 1
        # Inline, every build derives over the borrowed base: one reuse each.
        assert stats.base_context_reuses == stats.prefix_misses
        assert (stats.prefix_misses > 0) == (backend is None)

    def test_a_conflict_predicate_means_no_analyzer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nobody asks this analyzer anything")

        monkeypatch.setattr("repro.service.core.ConflictAnalyzer", refuse)
        core = CoreService(
            Repository(),
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
            CoreServiceConfig(workers=4),
            controller=LabelBuildController(),
            conflict_predicate=potential_conflict,
        )
        stream = WorkloadGenerator(IOS_WORKLOAD).stream(200.0, 12)
        for at, change in stream:
            core.enqueue(change, at=at)
        assert len(core.pump()) == 12
        assert core.analyzer is None


class TestControllerHooks:
    """Controller hooks are methods on every controller, never probed."""

    def test_label_controller_refuses_a_build_backend(self):
        before = set(multiprocessing.active_children())
        with pytest.raises(ParallelExecutionError, match="LabelBuildController"):
            CoreService(
                Repository(),
                SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
                config=CoreServiceConfig(build_backend="process:2"),
                controller=LabelBuildController(),
                conflict_predicate=potential_conflict,
            )
        assert set(multiprocessing.active_children()) == before


class TestDuplicateChangeId:
    """An id the service already holds is refused before it is journaled.

    Journaled first, the duplicate made ``recover()`` re-raise forever.
    """

    @pytest.mark.parametrize("held_as", ["queued", "pending", "decided"])
    @pytest.mark.parametrize("via", ["submit", "enqueue"])
    def test_refused_before_journaling(
        self, monorepo, tmp_path, held_as, via
    ):
        journal_dir = str(tmp_path / "journal")
        writer = JournalWriter(journal_dir)
        core = CoreService(
            repo=monorepo.repo,
            strategy=SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
            config=CoreServiceConfig(workers=4, journal=writer),
        )
        change = monorepo.make_clean_change(monorepo.target_names(layer=0)[0])
        if held_as == "queued":
            core.enqueue(change, at=5.0)
        else:
            core.submit(change)
            if held_as == "decided":
                core.pump()

        def journal_bytes():
            with open(events_path(journal_dir), "rb") as handle:
                return handle.read()

        journal_before = journal_bytes()
        fingerprint_before = fingerprint_digest(core)
        with pytest.raises(DuplicateChangeError, match=change.change_id) as excinfo:
            if via == "submit":
                core.submit(change)
            else:
                core.enqueue(change, at=9.0)
        assert isinstance(excinfo.value, ReproError)
        assert journal_bytes() == journal_before
        assert fingerprint_digest(core) == fingerprint_before
        # The refused duplicate never fires inside the pump either.
        decisions = core.pump()
        assert [d.change_id for d in decisions] == (
            [] if held_as == "decided" else [change.change_id]
        )
        writer.close()
        report = recover(journal_dir, attach=False)
        assert fingerprint_digest(report.service) == fingerprint_digest(core)


class TestStatus:
    def test_unknown_change(self, service):
        with pytest.raises(UnknownChangeError):
            service.status("D999999")

    def test_status_counters(self, service, monorepo):
        change = monorepo.make_clean_change()
        status = service.land_change(change, wait=True)
        assert status.builds_scheduled >= 1
        assert status.speculations_succeeded >= 1
        assert status.reason
