"""Quiescent-state snapshots: capture and restore a ``CoreService``.

Snapshots are taken only when the service is *quiescent* — no pending
changes, no scheduled events, no busy workers — so the serialized state
is exactly the carry-over that outlives a pump: the repository (content
and per-commit greenness, never raw commit ids, which come from a
process-global counter), the planner's ledger/decision history, queue
sequencing, worker duration history, and the shared artifact cache.

What is deliberately *not* captured — analyzer caches, memoized build
contexts, strategy carry-over — is exactly
the state the incremental property suites (PRs 2-5) prove bit-identical
to a cold rebuild: restoring fresh instances changes counters like cache
hit rates, never outcomes, durations, or decisions.  The artifact cache
is the one cache that *does* shape observable behaviour (cached steps
cost less, so warmth feeds build durations and event timing), so it is
part of the snapshot.

Also home to the codecs the ``init`` record shares with snapshots:
config, strategy spec, and repository payloads.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Dict, List, Mapping, Optional

from repro.buildsys.cache import ArtifactCache
from repro.buildsys.steps import StepResult, StepSpec
from repro.changes.state import ChangeRecord
from repro.errors import JournalCorruptError, JournalError
from repro.journal.records import decode_change, encode_change
from repro.planner.planner import Decision, PlannerStats
from repro.types import ChangeState, StepKind
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository


def is_quiescent(service) -> bool:
    """True when no work is pending, scheduled, or running."""
    return (
        service.planner.pending_count() == 0
        and not service._events
        and service.planner.workers.busy == 0
    )


# -- config / strategy / repo codecs ---------------------------------------


def encode_config(config) -> Dict[str, object]:
    """The journaled part of a ``CoreServiceConfig``.

    ``journal``, ``build_backend`` and ``step_wall_seconds`` are
    wall-side only — records and decisions are byte-identical whichever
    backend ran the builds — and never journaled.
    """
    return {
        "workers": config.workers,
        "max_pump_minutes": config.max_pump_minutes,
    }


def decode_config(payload: Mapping[str, object]):
    from repro.service.core import CoreServiceConfig

    # Older journals also carry a queue spec here; it selected between
    # two sweeps with identical decisions and is ignored.
    return CoreServiceConfig(
        workers=payload["workers"],
        max_pump_minutes=payload["max_pump_minutes"],
    )


def strategy_spec(strategy) -> Dict[str, object]:
    """A reconstructible description of the strategy, when one exists.

    ``SubmitQueueStrategy`` over a ``StaticPredictor`` — the default
    service stack — round-trips fully.  Anything else is recorded by
    name only (``opaque``) and :func:`build_strategy` refuses it, so
    ``recover()`` callers must inject an equivalent strategy themselves.
    """
    from repro.predictor.predictors import StaticPredictor
    from repro.strategies.risk_batch import RiskBatchStrategy
    from repro.strategies.submitqueue import SubmitQueueStrategy

    if type(strategy) is RiskBatchStrategy and type(
        strategy.predictor
    ) is StaticPredictor:
        # Subclass of SubmitQueueStrategy: must be matched before the
        # generic branch or the batching knobs would be lost on replay.
        predictor = strategy.predictor
        return {
            "name": "RiskBatchStrategy",
            "predictor": {
                "name": "StaticPredictor",
                "success": predictor._success,
                "conflict": predictor._conflict,
            },
            "batch_size": strategy.batch_size,
            "member_confidence": strategy.member_confidence,
            "max_pair_conflict": strategy.max_pair_conflict,
            "min_joint_success": strategy.min_joint_success,
        }
    if type(strategy) is SubmitQueueStrategy and type(
        strategy.predictor
    ) is StaticPredictor:
        predictor = strategy.predictor
        return {
            "name": "SubmitQueueStrategy",
            "predictor": {
                "name": "StaticPredictor",
                "success": predictor._success,
                "conflict": predictor._conflict,
            },
        }
    return {"name": type(strategy).__name__, "opaque": True}


def build_strategy(spec: Mapping[str, object]):
    """Rebuild a strategy from its journaled spec, or raise JournalError."""
    if spec.get("name") == "RiskBatchStrategy":
        # Older journals also carry ``"enabled": true``; the batching-off
        # switch is gone, so a spec that turned batching off is refused.
        if spec.get("enabled", True) is not True:
            raise JournalError(
                "journaled RiskBatchStrategy has batching off; pass "
                "strategy= to recover()"
            )
        predictor_spec = spec.get("predictor") or {}
        if predictor_spec.get("name") == "StaticPredictor":
            from repro.predictor.predictors import StaticPredictor
            from repro.strategies.risk_batch import RiskBatchStrategy

            return RiskBatchStrategy(
                StaticPredictor(
                    success=predictor_spec["success"],
                    conflict=predictor_spec["conflict"],
                ),
                batch_size=spec["batch_size"],
                member_confidence=spec["member_confidence"],
                max_pair_conflict=spec["max_pair_conflict"],
                min_joint_success=spec["min_joint_success"],
            )
    if spec.get("name") == "SubmitQueueStrategy":
        predictor_spec = spec.get("predictor") or {}
        if predictor_spec.get("name") == "StaticPredictor":
            from repro.predictor.predictors import StaticPredictor
            from repro.strategies.submitqueue import SubmitQueueStrategy

            return SubmitQueueStrategy(
                StaticPredictor(
                    success=predictor_spec["success"],
                    conflict=predictor_spec["conflict"],
                )
            )
    raise JournalError(
        f"journaled strategy {spec.get('name')!r} is not reconstructible; "
        "pass strategy= to recover()"
    )


def repo_payload(repo: Repository) -> Dict[str, object]:
    """Content + health of the mainline, free of raw commit ids."""
    return {
        "files": repo.snapshot().to_dict(),
        "green": repo.mainline_green_flags(),
    }


def rebuild_repo(payload: Mapping[str, object]) -> Repository:
    """A repository with the journaled head content and mainline health.

    The original layered deltas are not preserved — the root commit holds
    the whole tree and padding commits with empty patches re-create the
    history length and per-commit green flags.  Everything observable
    through the repository API that the service consumes (head snapshot,
    history length, greenness) matches; commit ids never can, and nothing
    downstream depends on them.
    """
    green: List[bool] = list(payload["green"])
    if not green:
        raise JournalCorruptError("repo payload has an empty mainline")
    repo = Repository(payload["files"])
    if not green[0]:
        repo.mark_red(repo.head())
    for flag in green[1:]:
        repo.commit_to_mainline(
            Patch(), message="journal restore padding", green=bool(flag)
        )
    return repo


# -- capture ----------------------------------------------------------------


def _encode_ledger_record(record: ChangeRecord) -> Dict[str, object]:
    return {
        "change": encode_change(record.change),
        "state": record.state.value,
        "enqueued": record.enqueued_at,
        "decided_at": record.decided_at,
        "reason": record.decision_reason,
        "ss": record.speculations_succeeded,
        "sf": record.speculations_failed,
        "bs": record.builds_scheduled,
        "ba": record.builds_aborted,
    }


def _decode_ledger_record(payload: Mapping[str, object]) -> ChangeRecord:
    return ChangeRecord(
        change=decode_change(payload["change"]),
        state=ChangeState(payload["state"]),
        enqueued_at=payload["enqueued"],
        decided_at=payload["decided_at"],
        decision_reason=payload["reason"],
        speculations_succeeded=payload["ss"],
        speculations_failed=payload["sf"],
        builds_scheduled=payload["bs"],
        builds_aborted=payload["ba"],
    )


def _artifact_cache_of(service) -> Optional[ArtifactCache]:
    executor = getattr(service.controller, "executor", None)
    return getattr(executor, "cache", None)


def capture_state(service) -> Dict[str, object]:
    """Serialize a quiescent service's carry-over state."""
    if not is_quiescent(service):
        raise JournalError("snapshots require a quiescent service")
    planner = service.planner
    workers = planner.workers
    cache = _artifact_cache_of(service)
    return {
        "at": service.clock.now,
        "repo": repo_payload(service.repo),
        "ledger": [
            _encode_ledger_record(record) for record in planner.records.values()
        ],
        "decided": [
            [change_id, verdict] for change_id, verdict in planner.decided.items()
        ],
        "decisions": [
            [d.change_id, d.committed, d.at, d.reason]
            for d in planner.decisions()
        ],
        "ancestors": [
            [change_id, list(record.ancestors)]
            for change_id, record in planner.records.items()
        ],
        "sequences": [
            [change_id, seq] for seq, change_id in enumerate(planner.records)
        ],
        "next_seq": len(planner.records),
        "ancestry_version": planner.reorders_applied,
        "stats": asdict(planner.stats),
        "workers": {
            "ewma": [
                [change_id, value]
                for change_id, value in workers._duration_ewma.items()
            ],
            "slots": [
                [slot.total_busy, slot.builds_run] for slot in workers._workers
            ],
        },
        "artifact_cache": []
        if cache is None
        else [
            [digest, kind.value, result.spec.target, result.passed, result.log]
            for (digest, kind), result in cache.items()
        ],
    }


# -- restore ----------------------------------------------------------------


def restore_service(
    state: Mapping[str, object],
    config,
    strategy,
    recorder=None,
):
    """A fresh ``CoreService`` carrying the snapshot's state.

    Rebuilt caches (analyzer, build contexts, strategy carry-over) start
    cold; the artifact cache — the one whose warmth shapes observable
    durations — is reloaded, so replayed and future builds cost exactly
    what they would have in the uninterrupted run.
    """
    from repro.obs.recorder import NULL_RECORDER
    from repro.service.core import CoreService

    if recorder is None:
        recorder = NULL_RECORDER
    repo = rebuild_repo(state["repo"])
    service = CoreService(
        repo,
        strategy,
        config=replace(config, journal=None),
        recorder=recorder,
    )
    service.clock.advance_to(state["at"])

    planner = service.planner
    for payload in state["ledger"]:
        record = _decode_ledger_record(payload)
        planner.records[record.change_id] = record
        planner.all_changes[record.change_id] = record.change
    # Sequence numbers are positions in the ledger; a snapshot that says
    # otherwise was not written by this program.
    sequences = [[cid, seq] for seq, cid in enumerate(planner.records)]
    if state["sequences"] != sequences or state["next_seq"] != len(sequences):
        raise JournalCorruptError(
            "snapshot sequence numbers disagree with its ledger order"
        )
    planner.decided = {change_id: verdict for change_id, verdict in state["decided"]}
    planner._decision_log = [
        Decision(change_id=cid, committed=committed, at=at, reason=reason)
        for cid, committed, at, reason in state["decisions"]
    ]
    if [cid for cid, _ in state["ancestors"]] != list(planner.records):
        raise JournalCorruptError(
            "snapshot ancestor lists disagree with its ledger order"
        )
    for change_id, ancestors in state["ancestors"]:
        planner.records[change_id].ancestors = list(ancestors)
    # The undecided counts and ready memo follow from the records (empty
    # for today's quiescent snapshots).
    planner.reindex()
    planner.reorders_applied = state["ancestry_version"]
    planner.stats = PlannerStats(**state["stats"])
    # Rebind the exposed series to the restored counts.
    recorder.expose(planner.stats)

    workers = planner.workers
    for change_id, value in state["workers"]["ewma"]:
        workers._duration_ewma[change_id] = value
    slots = state["workers"]["slots"]
    if len(slots) != len(workers._workers):
        raise JournalCorruptError(
            f"snapshot describes {len(slots)} workers, config has "
            f"{len(workers._workers)}"
        )
    for slot, (total_busy, builds_run) in zip(workers._workers, slots):
        slot.total_busy = total_busy
        slot.builds_run = builds_run

    cache = _artifact_cache_of(service)
    if cache is not None:
        for digest, kind, target, passed, log in state["artifact_cache"]:
            step_kind = StepKind(kind)
            cache.put(
                digest,
                step_kind,
                StepResult(StepSpec(target, step_kind), passed, log),
            )
    return service
