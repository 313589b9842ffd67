"""The parallel build backend: spec parsing, bit-identity against the
backend-less oracle at rest and between submit and pump, shared EWMA
history, backend-free recovery, metrics, and dependency hygiene."""

import copy
import os
import subprocess
import sys

import pytest

from repro.errors import ParallelExecutionError, PlannerError
from repro.journal import (
    JournalWriter,
    events_path,
    fingerprint_digest,
    read_journal,
    recover,
)
from repro.parallel import ProcessBuildBackend, create_build_backend
from repro.parallel.payload import BuildRequest
from repro.parallel.worker import execute_request, reset_worker_state
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

SPEC = MonorepoSpec(layers=(3, 4, 3), fan_in=2)
WORKERS = 3


@pytest.fixture(scope="module")
def cell():
    """One minted workload every mirrored run shares: snapshot + changes.

    Change ids come from a process-global counter, so the changes are
    minted exactly once; runs deep-copy them (``Change`` is mutable) over
    private ``Repository`` copies of the one snapshot.
    """
    synth = SyntheticMonorepo(SPEC, seed=7)
    targets = synth.target_names()
    changes = [
        synth.make_clean_change(
            target_name=targets[(3 * i) % len(targets)], submitted_at=0.0
        )
        for i in range(4)
    ]
    changes.append(
        synth.make_broken_change(target_name=targets[1], submitted_at=0.0)
    )
    first, second = synth.make_conflicting_pair(
        target_name=targets[5], submitted_at=0.0
    )
    changes.extend([first, second])
    return synth.repo.snapshot().to_dict(), changes


def make_service(cell, backend, journal=None):
    files, _ = cell
    return CoreService(
        Repository(dict(files)),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(
            workers=WORKERS,
            build_backend=backend,
            journal=journal,
        ),
    )


def run_cell(cell, backend, journal=None, enqueue_tail=True):
    service = make_service(cell, backend, journal)
    batch = copy.deepcopy(cell[1])
    for change in batch[:3]:
        service.submit(change)
    tail = batch[3:]
    if enqueue_tail:
        for index, change in enumerate(tail):
            service.enqueue(change, at=float(index))
    else:
        for change in tail:
            service.submit(change)
    decisions = service.pump()
    return service, [(d.change_id, d.committed, d.at) for d in decisions]


# -- spec parsing ------------------------------------------------------------


def test_create_backend_specs():
    with create_build_backend("process:3") as process:
        assert isinstance(process, ProcessBuildBackend)
        assert process.worker_count == 3
    with create_build_backend("process") as process:
        assert process.worker_count == (os.cpu_count() or 1)


def test_collect_unknown_token_raises():
    backend = ProcessBuildBackend(1)  # no pool starts before the first batch
    with pytest.raises(ParallelExecutionError):
        backend.collect(99)


# -- worker unit behaviour ---------------------------------------------------


def _small_request(**overrides):
    synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 2), fan_in=2), seed=3)
    change = synth.make_clean_change(target_name=synth.target_names()[0])
    fields = dict(
        build_id=0,
        change_id=change.change_id,
        base_commit_id=synth.repo.head(),
        base_snapshot=synth.repo.snapshot().to_dict(),
        assumed=(),
        patch=change.patch,
    )
    fields.update(overrides)
    return BuildRequest(**fields)


def test_execute_request_returns_step_records():
    reset_worker_state()
    response = execute_request(_small_request())
    assert response.error is None and response.merge_conflict is None
    assert response.steps, "a clean change must execute steps"
    assert all(step.passed for step in response.steps)
    assert response.targets


def test_execute_request_reports_merge_conflict():
    from repro.vcs.patch import Patch

    reset_worker_state()
    synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 2), fan_in=2), seed=5)
    files = synth.repo.snapshot().to_dict()
    path = sorted(p for p in files if not p.endswith("BUILD"))[0]
    # Two patches rewriting the same file against the same recorded base:
    # stacking the second over the first is a three-way textual conflict.
    first = Patch.modifying({path: files[path] + "\n# a\n"}, base=files)
    second = Patch.modifying({path: files[path] + "\n# b\n"}, base=files)
    request = BuildRequest(
        build_id=0,
        change_id="D-conflict",
        base_commit_id=synth.repo.head(),
        base_snapshot=files,
        assumed=(("D-first", first),),
        patch=second,
    )
    response = execute_request(request)
    assert response.error is None
    assert response.merge_conflict is not None
    assert not response.steps


# -- bit-identity against the serial oracle ----------------------------------


def test_backends_bit_identical_to_oracle(cell):
    oracle, oracle_decisions = run_cell(cell, backend=None)
    oracle_fp = fingerprint_digest(oracle)
    service, decisions = run_cell(cell, backend="process:2")
    assert decisions == oracle_decisions
    assert fingerprint_digest(service) == oracle_fp
    service.close()
    # The broken change and the conflict loser were both rejected.
    verdicts = dict((cid, ok) for cid, ok, _ in oracle_decisions)
    assert sum(1 for ok in verdicts.values() if not ok) == 2
    assert oracle.repo.is_green()


def test_fingerprints_agree_between_submits_and_pump(cell):
    """One tempo: a driver reading state after any submit — builds
    dispatched, none resolved — sees the same thing under every spec."""
    seen = {}
    for spec in (None, "process:2"):
        service = make_service(cell, spec)
        digests = []
        for change in copy.deepcopy(cell[1]):
            service.submit(change)
            digests.append(fingerprint_digest(service))
        service.pump()
        digests.append(fingerprint_digest(service))
        service.close()
        seen[spec] = digests
    assert seen["process:2"] == seen[None]


def test_completing_an_unresolved_dispatch_raises(cell):
    service = make_service(cell, None)
    service.submit(copy.deepcopy(cell[1][0]))
    planner = service.planner
    (key,) = planner.workers.running_builds()
    assert planner.builds[key].execution is None
    with pytest.raises(PlannerError, match="before its dispatch resolved"):
        planner.complete(key, 1.0)
    service.close()


def test_interactive_submits_match_enqueued(cell):
    """enqueue() interleaves identically to submit() at the same instants
    (every change here fires at t=0)."""
    enq, enq_decisions = run_cell(cell, backend="process:2", enqueue_tail=True)
    sub, sub_decisions = run_cell(cell, backend="process:2", enqueue_tail=False)
    # Tail submissions fire at 0.0/1.0/2.0... via enqueue but at 0.0 when
    # submitted inline, so only the t=0 head is comparable; instead check
    # both runs reach a green mainline with the same verdict multiset.
    assert dict((c, ok) for c, ok, _ in enq_decisions) == dict(
        (c, ok) for c, ok, _ in sub_decisions
    )
    enq.close()
    sub.close()


def test_worker_duration_history_shared_across_backends(cell):
    """S1: worker-observed durations feed the parent pool's EWMA history
    identically under every backend (merge-back reconstructs canonical
    durations, so LPT assignment stays bit-identical)."""
    oracle, _ = run_cell(cell, backend=None)
    process, _ = run_cell(cell, backend="process:2")
    assert (
        oracle.planner.workers.duration_history()
        == process.planner.workers.duration_history()
    )
    assert oracle.planner.workers.duration_history()  # non-empty
    process.close()


def test_close_between_submit_and_pump_resolves_the_dispatch(cell, tmp_path):
    """Closing with a batch still dispatched resolves it first: the journal
    ends with its epoch's records, as the backend-less run's does, and
    the backend holds nothing in flight when it shuts down."""
    journals = {}
    for spec in (None, "process:2"):
        journal_dir = str(tmp_path / str(spec))
        writer = JournalWriter(journal_dir)
        service = make_service(cell, spec, journal=writer)
        service.submit(copy.deepcopy(cell[1][0]))
        if spec is not None:
            backend = service._backend
            assert backend._inflight
            in_flight_at_close = []
            shut_down = backend.close
            backend.close = lambda: (
                in_flight_at_close.append(dict(backend._inflight)),
                shut_down(),
            )
        service.close()
        writer.close()
        journals[spec] = read_journal(events_path(journal_dir)).records
    assert in_flight_at_close == [{}]
    assert [r["t"] for r in journals["process:2"][-3:]] == [
        "epoch",
        "build_start",
        "worker",
    ]
    assert journals["process:2"] == journals[None]


# -- recovery needs no backend -----------------------------------------------


@pytest.mark.parametrize("snapshot_every", [10_000, 8], ids=["genesis", "snapshot"])
def test_process_journal_recovers_without_importing_parallel(
    cell, tmp_path, snapshot_every
):
    """A journal written under ``process:2`` replays — from genesis or from
    a snapshot — in an interpreter that never loads ``repro.parallel``."""
    journal_dir = str(tmp_path / "journal")
    writer = JournalWriter(journal_dir, snapshot_every=snapshot_every)
    service, _ = run_cell(cell, backend="process:2", journal=writer)
    live_fp = fingerprint_digest(service)
    service.close()
    writer.close()
    code = (
        "import sys\n"
        "from repro.journal import fingerprint_digest, recover\n"
        f"report = recover({journal_dir!r}, attach=False)\n"
        "leaked = [m for m in sys.modules if m.startswith('repro.parallel')]\n"
        "assert not leaked, f'recovery imported {leaked}'\n"
        "assert report.replayed > 0 or report.snapshot_restored\n"
        "print(report.snapshot_restored, fingerprint_digest(report.service))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [str(snapshot_every == 8), live_fp]


# -- metrics -----------------------------------------------------------------


def test_parallel_metrics_reported(cell):
    from repro.obs.recorder import Recorder

    files, changes = cell
    recorder = Recorder()
    service = CoreService(
        Repository(dict(files)),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(
            workers=WORKERS, build_backend="process:2"
        ),
        recorder=recorder,
    )
    for change in copy.deepcopy(changes):
        service.submit(change)
    service.pump()
    service.close()
    text = recorder.prometheus_text()
    # Every started build is dispatched: planner_builds_started_total
    # is the dispatch count.
    assert "planner_builds_started_total" in text
    assert 'executor_parallel_inflight{backend="process"}' in text
    assert "executor_parallel_batch_seconds" in text
    # Per-worker-process utilization histograms, labelled by stable slot.
    assert 'executor_parallel_worker_busy_seconds' in text
    assert 'worker="0"' in text


def test_enqueue_metrics_reported(cell):
    from repro.obs.recorder import Recorder

    files, changes = cell
    recorder = Recorder()
    service = CoreService(
        Repository(dict(files)),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(
            workers=WORKERS,
            build_backend="process:2",
            step_wall_seconds=0.002,
        ),
        recorder=recorder,
    )
    batch = copy.deepcopy(changes)
    for change in batch[:3]:
        service.submit(change)
    for change in batch[3:]:
        service.enqueue(change, at=5.0)
    assert service.planner.pending_count() == 3  # enqueued ones wait for the pump
    service.pump()
    service.close()
    text = recorder.prometheus_text()
    assert "service_enqueued_total" in text


# -- dependency hygiene ------------------------------------------------------


def test_serial_path_never_imports_parallel():
    """The check CI runs: a serial service run must not load repro.parallel."""
    code = (
        "import sys\n"
        "from repro.service.core import CoreService, CoreServiceConfig\n"
        "from repro.strategies.submitqueue import SubmitQueueStrategy\n"
        "from repro.predictor.predictors import StaticPredictor\n"
        "from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo\n"
        "synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 2), fan_in=2), seed=1)\n"
        "service = CoreService(\n"
        "    synth.repo,\n"
        "    SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),\n"
        ")\n"
        "service.submit(synth.make_clean_change(target_name=synth.target_names()[0]))\n"
        "service.pump()\n"
        "leaked = [m for m in sys.modules if m.startswith('repro.parallel')]\n"
        "assert not leaked, f'serial path imported {leaked}'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
