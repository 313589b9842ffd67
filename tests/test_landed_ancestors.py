"""A build stacks only what has not landed.

A decisive key names its committed ancestors, but their patches are
already in the mainline head the build merges onto.  Re-applying them is
not an identity once a landed ancestor deleted a path, or a later landed
change re-edited one: the stack fails to merge and a clean change is
rejected.  Each scenario below must commit every change, inline, on a
process backend, and after ``recover()`` from a snapshot.
"""

import pytest

from repro.buildsys.executor import BuildExecutor
from repro.changes.change import Change, Developer
from repro.journal import (
    CrashingJournal,
    JournalWriter,
    SimulatedCrashError,
    events_path,
    fingerprint_digest,
    read_journal,
    recover,
)
from repro.journal.records import COMMIT, SNAPSHOT
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import FileOp, OpKind, Patch
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

DEV = Developer("landed-dev")
SPEC = MonorepoSpec(layers=(2, 3, 2), fan_in=2)
TARGET = "layer0/t000"


def _repo():
    return SyntheticMonorepo(SPEC, seed=5).repo


def _change(change_id, patch):
    return Change(change_id=change_id, revision_id="R1", developer=DEV, patch=patch)


def _edit(path, base, suffix):
    return Patch.modifying({path: base + suffix}, base={path: base})


def delete_then_edit(files):
    """``c00`` deletes one of a target's sources and drops it from the
    BUILD file; ``c01`` edits the target's other source."""
    build_path = f"{TARGET}/BUILD"
    build = files[build_path]
    trimmed = build.replace("['src_0.py', 'src_1.py']", "['src_1.py']")
    assert trimmed != build
    other = f"{TARGET}/src_1.py"
    return [
        _change(
            "c00",
            Patch(
                [
                    FileOp(OpKind.DELETE, f"{TARGET}/src_0.py"),
                    FileOp(OpKind.MODIFY, build_path, trimmed, base_content=build),
                ]
            ),
        ),
        _change("c01", _edit(other, files[other], "# edit beside the delete\n")),
    ]


def follow_up_edit(files):
    """``c01`` re-edits the path ``c00`` edits, authored on ``c00``'s
    post-image; ``c02`` edits the target's other source."""
    path, other = f"{TARGET}/src_0.py", f"{TARGET}/src_1.py"
    first = _edit(path, files[path], "# first\n")
    post_image = first.op_for(path).content
    return [
        _change("c00", first),
        _change("c01", _edit(path, post_image, "# second\n")),
        _change("c02", _edit(other, files[other], "# beside\n")),
    ]


SCENARIOS = [delete_then_edit, follow_up_edit]


def _service(repo, **config):
    return CoreService(
        repo,
        SubmitQueueStrategy(StaticPredictor(0.9, 0.05)),
        config=CoreServiceConfig(workers=1, **config),
    )


def _assert_all_committed(service, changes):
    decided = service.planner.decided
    reasons = {d.change_id: d.reason for d in service.planner.decisions()}
    assert all(decided.get(c.change_id) for c in changes), reasons
    repo = service.repo
    assert repo.mainline_length() == 1 + len(changes)
    assert repo.is_green()
    assert BuildExecutor().build(repo.snapshot().to_dict()).success


@pytest.mark.parametrize("backend", [None, "process:2"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_change_commits(scenario, backend):
    repo = _repo()
    changes = scenario(repo.snapshot().to_dict())
    service = _service(repo, build_backend=backend)
    try:
        for change in changes:
            service.submit(change)
        service.pump()
    finally:
        service.close()
    _assert_all_committed(service, changes)
    # The head holds every patch: the last change's edit is there, and a
    # deleted source stays deleted.
    head = repo.snapshot()
    last = changes[-1].patch
    for path in last.paths:
        assert head.get(path) == last.op_for(path).content


def _journaled_run(journal, changes, warm_up):
    """A snapshot-taking pump over ``warm_up``, then one over ``changes``."""
    service = _service(_repo(), journal=journal)
    service.submit(warm_up)
    service.pump()
    for change in changes:
        service.submit(change)
    service.pump()
    return service


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_recovered_service_commits_every_change(scenario, tmp_path):
    """Crash right after the first ancestor's commit is journaled: the
    recovered service restores a snapshot, replays the landing, and its
    fresh controller reads landed-ness from the restored verdicts."""
    files = _repo().snapshot().to_dict()
    changes = scenario(files)
    far = "layer2/t000/src_0.py"
    warm_up = _change("w00", _edit(far, files[far], "# unrelated\n"))

    reference_dir = str(tmp_path / "reference")
    writer = JournalWriter(reference_dir, snapshot_every=1)
    reference = _journaled_run(writer, changes, warm_up)
    writer.close()
    _assert_all_committed(reference, [warm_up] + changes)
    # Snapshots are written by the inner writer, not counted as appends.
    appended = [
        record
        for record in read_journal(events_path(reference_dir)).records
        if record["t"] != SNAPSHOT
    ]
    landed_at = next(
        index
        for index, record in enumerate(appended)
        if record["t"] == COMMIT and record["change"] == changes[0].change_id
    )

    crash_dir = str(tmp_path / "crash")
    crashing = CrashingJournal(
        JournalWriter(crash_dir, snapshot_every=1),
        crash_after=landed_at + 1,
        before_write=True,
    )
    with pytest.raises(SimulatedCrashError):
        _journaled_run(crashing, changes, warm_up)
    crashing.inner.close()

    report = recover(crash_dir, attach=False)
    assert report.snapshot_restored
    assert report.journal_records == landed_at + 2  # and the one snapshot
    recovered = report.service
    assert recovered.planner.decided[changes[0].change_id] is True
    assert recovered.planner.pending_count() == len(changes) - 1
    recovered.pump()
    _assert_all_committed(recovered, [warm_up] + changes)
    assert fingerprint_digest(recovered) == fingerprint_digest(reference)
