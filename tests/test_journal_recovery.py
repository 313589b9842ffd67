"""Recovery unit tests: genesis replay, snapshot restore, torn tails,
resumed journaling, corruption handling, and the CLI subcommands."""

import json
import os

import pytest

from repro.errors import JournalCorruptError, JournalError
from repro.journal import (
    JournalWriter,
    SimulatedCrashError,
    CrashingJournal,
    events_path,
    fingerprint_digest,
    read_journal,
    recover,
    state_fingerprint,
    summarize,
    verify_journal,
)
from repro.journal.framing import encode_record
from repro.journal.records import SCHEMA_VERSION, SNAPSHOT
from repro.journal.snapshots import capture_state, restore_service
from repro.strategies.speculate_all import SpeculateAllStrategy

from .journal_harness import (
    SNAPSHOT_EVERY,
    drive,
    finish_after_recovery,
    make_service,
    mint_changes,
    reference_run,
    script_ops,
)

OPS = script_ops(6, [False, False, True, False, False, True])


@pytest.fixture(scope="module")
def changes():
    return mint_changes()


@pytest.fixture()
def reference(tmp_path, changes):
    service = reference_run(str(tmp_path / "ref"), changes, OPS)
    return service, str(tmp_path / "ref")


class TestUninterruptedRecovery:
    def test_snapshot_restore_matches_live_state(self, reference):
        service, journal_dir = reference
        report = recover(journal_dir, attach=False)
        assert report.snapshot_restored
        assert state_fingerprint(report.service) == state_fingerprint(service)

    def test_genesis_replay_matches_live_state(self, tmp_path, changes):
        journal_dir = str(tmp_path / "nosnap")
        service = reference_run(journal_dir, changes, OPS, snapshot_every=10_000)
        report = recover(journal_dir, attach=False)
        assert not report.snapshot_restored
        assert report.replayed > 0 and report.verified > 0
        assert state_fingerprint(report.service) == state_fingerprint(service)

    def test_recovered_service_keeps_working(self, reference, changes):
        from repro.changes.change import Change, Developer, next_change_id, next_revision_id
        from repro.vcs.patch import Patch

        service, journal_dir = reference
        report = recover(journal_dir)
        # The extra change must be based on the *recovered* head content.
        snapshot = report.service.repo.snapshot()
        path = next(p for p in sorted(snapshot) if p.endswith("src_0.py"))
        base = snapshot.read(path)
        extra = Change(
            change_id=next_change_id(),
            revision_id=next_revision_id(),
            developer=Developer("dev-post-recovery"),
            patch=Patch.modifying(
                {path: base + "# post-recovery tweak\n"}, base={path: base}
            ),
            submitted_at=report.service.clock.now,
        )
        report.service.submit(extra)
        decisions = report.service.pump()
        assert any(d.change_id == extra.change_id for d in decisions)
        # ... and the journal recorded the post-recovery work durably.
        again = recover(journal_dir, attach=False)
        assert extra.change_id in again.service.planner.decided

    def test_verify_replay_does_not_modify_journal(self, reference):
        _, journal_dir = reference
        before = open(events_path(journal_dir), "rb").read()
        result = verify_journal(journal_dir, replay=True)
        assert result.ok
        assert open(events_path(journal_dir), "rb").read() == before


class TestTornTail:
    def test_torn_tail_truncated_and_regenerated(self, tmp_path, changes):
        journal_dir = str(tmp_path / "torn")
        service = reference_run(journal_dir, changes, OPS, snapshot_every=10_000)
        path = events_path(journal_dir)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 9)
        report = recover(journal_dir)
        assert report.truncated_bytes > 0
        assert state_fingerprint(report.service) == state_fingerprint(service)
        # After recovery the journal is whole again.
        assert verify_journal(journal_dir, replay=True).ok

    def test_truncation_into_init_record_raises_typed_error(
        self, tmp_path, changes
    ):
        journal_dir = str(tmp_path / "headless")
        reference_run(journal_dir, changes, OPS)
        path = events_path(journal_dir)
        with open(path, "r+b") as handle:
            handle.truncate(10)  # mid first record: nothing valid remains
        with pytest.raises(JournalCorruptError):
            recover(journal_dir)

    def test_missing_journal_raises_typed_error(self, tmp_path):
        with pytest.raises(JournalCorruptError, match="no journal"):
            recover(str(tmp_path / "absent"))


class TestCrashingJournal:
    def test_mid_run_crash_recovers_and_run_completes(self, tmp_path, changes):
        uninterrupted = reference_run(None, changes, OPS)
        journal_dir = str(tmp_path / "crash")
        crashing = CrashingJournal(
            JournalWriter(journal_dir, snapshot_every=SNAPSHOT_EVERY),
            crash_after=17,
        )
        service = make_service(journal=crashing)
        with pytest.raises(SimulatedCrashError):
            drive(service, changes, OPS)
        report = recover(journal_dir)
        finish_after_recovery(report, changes, OPS)
        assert state_fingerprint(report.service) == state_fingerprint(
            uninterrupted
        )

    def test_crash_counting(self, tmp_path):
        inner = JournalWriter(str(tmp_path / "j"))
        crashing = CrashingJournal(inner, crash_after=1, before_write=True)
        crashing.append({"t": "init", "v": SCHEMA_VERSION})
        with pytest.raises(SimulatedCrashError):
            crashing.append({"t": "stall", "at": 1.0})
        with pytest.raises(SimulatedCrashError):
            crashing.append({"t": "stall", "at": 2.0})
        inner.close()
        # before_write=True: the crashing record never reached the log.
        assert len(read_journal(events_path(str(tmp_path / "j"))).records) == 1


class TestWriterContract:
    def test_fresh_writer_refuses_existing_journal(self, tmp_path, changes):
        journal_dir = str(tmp_path / "exists")
        reference_run(journal_dir, changes, OPS)
        with pytest.raises(JournalError, match="already holds records"):
            JournalWriter(journal_dir)

    def test_resume_validates_valid_bytes(self, tmp_path, changes):
        journal_dir = str(tmp_path / "resume")
        reference_run(journal_dir, changes, OPS)
        size = os.path.getsize(events_path(journal_dir))
        with pytest.raises(JournalError, match="exceeds journal size"):
            JournalWriter.resume(journal_dir, valid_bytes=size + 1)

    def test_snapshot_cadence(self, tmp_path, changes):
        journal_dir = str(tmp_path / "cadence")
        reference_run(journal_dir, changes, OPS, snapshot_every=3)
        summary = summarize(journal_dir)
        assert summary.counts[SNAPSHOT] >= 1
        # Snapshots only land at quiescent points: service drained.
        for index in summary.snapshots_at:
            record = read_journal(events_path(journal_dir)).records[index]
            assert record["state"]["at"] == record["at"]


class TestSnapshotCodec:
    def test_capture_requires_quiescence(self, changes):
        service = make_service()
        service.submit(changes[0])  # pending work scheduled
        with pytest.raises(JournalError, match="quiescent"):
            capture_state(service)

    def test_capture_restore_round_trip(self, changes):
        service = make_service()
        drive(service, changes, OPS)
        state = capture_state(service)
        twin = restore_service(
            state, service.config, service.planner.strategy
        )
        assert state_fingerprint(twin) == state_fingerprint(service)

    def test_opaque_strategy_needs_explicit_override(self, tmp_path):
        from repro.service.core import CoreService, CoreServiceConfig
        from repro.workload.repo_synth import SyntheticMonorepo

        from .journal_harness import SPEC, REPO_SEED, WORKERS

        journal_dir = str(tmp_path / "opaque")
        writer = JournalWriter(journal_dir)
        repo = SyntheticMonorepo(SPEC, seed=REPO_SEED).repo
        CoreService(
            repo,
            SpeculateAllStrategy(),
            config=CoreServiceConfig(workers=WORKERS, journal=writer),
        )
        writer.close()
        with pytest.raises(JournalError, match="not reconstructible"):
            recover(journal_dir, attach=False)
        report = recover(journal_dir, strategy=SpeculateAllStrategy())
        assert report.service.planner.pending_count() == 0


def _rewrite_init(journal_dir, edit):
    """Rewrite a journal's ``init`` record in place."""
    path = events_path(journal_dir)
    with open(path, "rb") as handle:
        head, rest = handle.read().split(b"\n", 1)
    init = json.loads(head[9:])
    assert init["t"] == "init"
    edit(init)
    with open(path, "wb") as handle:
        handle.write(encode_record(init) + rest)


class TestRiskBatchSpec:
    """Journals written while ``RiskBatchStrategy`` had a batching-off
    switch carry ``"enabled"`` in their strategy spec."""

    def _journal(self, journal_dir, changes):
        from repro.predictor.predictors import StaticPredictor
        from repro.service.core import CoreService, CoreServiceConfig
        from repro.strategies.risk_batch import RiskBatchStrategy
        from repro.workload.repo_synth import SyntheticMonorepo

        from .journal_harness import SPEC, REPO_SEED, WORKERS

        writer = JournalWriter(journal_dir, snapshot_every=SNAPSHOT_EVERY)
        service = CoreService(
            SyntheticMonorepo(SPEC, seed=REPO_SEED).repo,
            RiskBatchStrategy(
                StaticPredictor(success=0.99, conflict=0.0), batch_size=3
            ),
            config=CoreServiceConfig(workers=WORKERS, journal=writer),
        )
        drive(service, changes, OPS)
        writer.close()
        return fingerprint_digest(service)

    def test_legacy_enabled_spec_recovers(self, tmp_path, changes):
        journal_dir = str(tmp_path / "legacy")
        live = self._journal(journal_dir, changes)

        def mark_enabled(init):
            assert "enabled" not in init["strategy"]
            init["strategy"]["enabled"] = True

        _rewrite_init(journal_dir, mark_enabled)
        report = recover(journal_dir, attach=False)
        assert fingerprint_digest(report.service) == live

    def test_batching_off_spec_refused(self, tmp_path, changes):
        journal_dir = str(tmp_path / "off")
        self._journal(journal_dir, changes)
        _rewrite_init(
            journal_dir, lambda init: init["strategy"].update(enabled=False)
        )
        with pytest.raises(JournalError, match="batching off"):
            recover(journal_dir, attach=False)


class TestCli:
    def test_inspect_verify_recover(self, reference, capsys):
        from repro.cli import main

        service, journal_dir = reference
        assert main(["journal", "inspect", journal_dir]) == 0
        out = capsys.readouterr().out
        assert f"schema version: {SCHEMA_VERSION}" in out and "commits:" in out

        assert main(["journal", "verify", journal_dir, "--replay"]) == 0
        assert "ok" in capsys.readouterr().out

        assert main(["journal", "recover", journal_dir, "--no-attach"]) == 0
        out = capsys.readouterr().out
        assert f"fingerprint: {fingerprint_digest(service)}" in out

    def test_verify_reports_corruption(self, tmp_path, capsys):
        from repro.cli import main

        journal_dir = str(tmp_path / "bad")
        os.makedirs(journal_dir)
        with open(events_path(journal_dir), "wb") as handle:
            handle.write(b"garbage line\n" * 2)
        assert main(["journal", "verify", journal_dir]) == 1
        assert "corrupt" in capsys.readouterr().err
