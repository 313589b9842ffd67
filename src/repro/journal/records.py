"""Typed journal records and the codecs that keep them canonical.

One record per externally meaningful event: service birth (``init``),
submission, planner epoch, speculative-build start/finish, decision,
mainline commit, worker-pool state, pump completion, and inline state
snapshots.  Three disjoint roles drive replay:

* **driver** records are the service's *inputs*; recovery re-drives them
  (``submit`` re-enqueues the journaled change, ``build_finish`` and
  ``stall`` advance the event loop one step);
* **assertion** records are *outputs* the replaying service must re-emit
  bit-identically — the replay verifier diffs every one against the log
  and raises :class:`~repro.errors.JournalReplayError` on divergence;
* **info** records (``pump_end``, ``snapshot``) carry bookkeeping the
  replay cursor skips.

The same record dicts are the service's trace: ``CoreService._emit``
hands each one to the journal and to ``Recorder.event``, which keeps it;
the trace fold (``repro.obs.recorder.fold``) reads the three fields
schema v4 added — ``epoch.queue``, ``build_finish.success`` and
``decision.turnaround``.

Canonicalization rules: every payload is built from JSON-native types
only (so an emitted record compares equal to its decoded twin), sets —
``Patch.paths``, ``BuildKey.assumed`` — are serialized sorted, and raw
commit ids never appear (they come from a process-global counter and
would differ across replays; commits are identified by mainline index,
sorted touched paths, and a content digest instead).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence

from repro.changes.change import Change, Developer, GroundTruth
from repro.errors import JournalCorruptError
from repro.types import BuildKey
from repro.vcs.patch import FileOp, OpKind, Patch

#: Bump when a record's shape changes incompatibly; readers refuse
#: journals stamped with any other version (there is no back-reader).
#: v3: the ``init`` config is ``workers`` / ``max_pump_minutes`` (older
#: v3 journals add a queue spec, which readers ignore), and every run
#: journals ``epoch`` / ``build_start`` / ``worker`` records at
#: resolution, in dispatch order.  v4: the records carry what the trace
#: folds from them — ``epoch`` its pending-queue depth (``queue``),
#: ``build_finish`` the build's outcome (``success``, ``null`` in v3) and
#: ``decision`` the change's turnaround in minutes (``turnaround``).
#: v5: ``epoch.aborted`` lists the aborted builds in dispatch order, and
#: a ``snapshot`` state drops the worker-slot history (``workers``) and
#: the sequence numbers its ledger order already gives (``sequences``,
#: ``next_seq``).
SCHEMA_VERSION = 5

INIT = "init"
SUBMIT = "submit"
STALL = "stall"
BUILD_FINISH = "build_finish"
EPOCH = "epoch"
BUILD_START = "build_start"
DECISION = "decision"
COMMIT = "commit"
WORKER = "worker"
BATCH = "batch"
PUMP_END = "pump_end"
SNAPSHOT = "snapshot"

#: Inputs recovery re-drives through the service.
DRIVER_TYPES = frozenset({SUBMIT, STALL, BUILD_FINISH})
#: Outputs the replaying service must re-emit bit-identically.
ASSERTION_TYPES = frozenset(
    {INIT, EPOCH, BUILD_START, DECISION, COMMIT, WORKER, BATCH}
)
#: Bookkeeping the replay cursor skips.
INFO_TYPES = frozenset({PUMP_END, SNAPSHOT})

ALL_TYPES = DRIVER_TYPES | ASSERTION_TYPES | INFO_TYPES


# -- value codecs -----------------------------------------------------------


def encode_key(key: BuildKey) -> Dict[str, object]:
    return {"c": key.change_id, "a": sorted(key.assumed)}


def decode_key(payload: Mapping[str, object]) -> BuildKey:
    return BuildKey(payload["c"], frozenset(payload["a"]))


def encode_patch(patch: Patch) -> List[Dict[str, object]]:
    """Ops in the patch's insertion order (it is part of patch identity)."""
    return [
        {"k": op.kind.value, "p": op.path, "c": op.content, "b": op.base_content}
        for op in patch
    ]


def decode_patch(payload: Sequence[Mapping[str, object]]) -> Patch:
    return Patch(
        FileOp(OpKind(op["k"]), op["p"], op["c"], op["b"]) for op in payload
    )


def encode_change(change: Change) -> Dict[str, object]:
    developer = change.developer
    truth = change.ground_truth
    return {
        "id": change.change_id,
        "rev": change.revision_id,
        "dev": {
            "id": developer.developer_id,
            "name": developer.name,
            "tenure": developer.tenure_years,
            "level": developer.level,
            "skill": developer.skill,
            "fragility": developer.area_fragility,
        },
        "patch": None if change.patch is None else encode_patch(change.patch),
        "base": change.base_commit,
        "at": change.submitted_at,
        "desc": change.description,
        "features": dict(change.features),
        "truth": None
        if truth is None
        else {
            "ok": truth.individually_ok,
            "targets": sorted(truth.target_names),
            "modules": sorted(truth.module_names),
            "salt": truth.conflict_salt,
            "rate": truth.real_conflict_rate,
            "structural": truth.changes_build_graph,
        },
        "duration": change.build_duration,
    }


def decode_change(payload: Mapping[str, object]) -> Change:
    dev = payload["dev"]
    truth = payload["truth"]
    return Change(
        change_id=payload["id"],
        revision_id=payload["rev"],
        developer=Developer(
            developer_id=dev["id"],
            name=dev["name"],
            tenure_years=dev["tenure"],
            level=dev["level"],
            skill=dev["skill"],
            area_fragility=dev["fragility"],
        ),
        patch=None if payload["patch"] is None else decode_patch(payload["patch"]),
        base_commit=payload["base"],
        submitted_at=payload["at"],
        description=payload["desc"],
        features=dict(payload["features"]),
        ground_truth=None
        if truth is None
        else GroundTruth(
            individually_ok=truth["ok"],
            target_names=frozenset(truth["targets"]),
            module_names=frozenset(truth["modules"]),
            conflict_salt=truth["salt"],
            real_conflict_rate=truth["rate"],
            changes_build_graph=truth["structural"],
        ),
        build_duration=payload["duration"],
    )


def snapshot_digest(files: Mapping[str, str]) -> str:
    """Content digest of a flattened snapshot (commit-id independent)."""
    hasher = hashlib.sha256()
    for path in sorted(files):
        hasher.update(path.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(files[path].encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def delta_digest(delta: Mapping[str, Optional[str]]) -> str:
    """Content digest of one commit's delta (``None`` marks a deletion)."""
    payload = json.dumps(
        {path: delta[path] for path in sorted(delta)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- record builders --------------------------------------------------------


def init_record(
    at: float,
    config_payload: Dict[str, object],
    strategy_payload: Dict[str, object],
    repo_payload: Dict[str, object],
) -> Dict[str, object]:
    return {
        "t": INIT,
        "v": SCHEMA_VERSION,
        "at": at,
        "config": config_payload,
        "strategy": strategy_payload,
        "repo": repo_payload,
    }


def submit_record(at: float, change: Change) -> Dict[str, object]:
    return {"t": SUBMIT, "at": at, "change": encode_change(change)}


def stall_record(at: float) -> Dict[str, object]:
    return {"t": STALL, "at": at}


def build_finish_record(
    at: float, key: BuildKey, success: bool
) -> Dict[str, object]:
    return {"t": BUILD_FINISH, "at": at, "key": encode_key(key), "success": success}


def epoch_record(
    at: float,
    started: Sequence[BuildKey],
    aborted: Sequence[BuildKey],
    queue: int,
) -> Dict[str, object]:
    return {
        "t": EPOCH,
        "at": at,
        "started": [encode_key(key) for key in started],
        "aborted": [encode_key(key) for key in aborted],
        "queue": queue,
    }


def build_start_record(
    at: float, key: BuildKey, duration: float
) -> Dict[str, object]:
    return {"t": BUILD_START, "at": at, "key": encode_key(key), "duration": duration}


def decision_record(
    at: float, change_id: str, committed: bool, reason: str, turnaround: float
) -> Dict[str, object]:
    return {
        "t": DECISION,
        "at": at,
        "change": change_id,
        "committed": committed,
        "reason": reason,
        "turnaround": turnaround,
    }


def commit_record(
    at: float,
    change_id: str,
    index: int,
    delta: Mapping[str, Optional[str]],
) -> Dict[str, object]:
    return {
        "t": COMMIT,
        "at": at,
        "change": change_id,
        "index": index,
        "paths": sorted(delta),
        "digest": delta_digest(delta),
    }


def worker_record(at: float, busy: int, capacity: int) -> Dict[str, object]:
    return {"t": WORKER, "at": at, "busy": busy, "capacity": capacity}


def batch_record(
    at: float, kind: str, members: Sequence[str], depth: int
) -> Dict[str, object]:
    """One speculative-batch resolution (``kind``: landed | bisect).

    Emitted only when the risk-batching strategy resolves a batch build,
    so journals of runs without it stay byte-identical to the golden
    pins.
    """
    return {
        "t": BATCH,
        "at": at,
        "kind": kind,
        "members": list(members),
        "depth": depth,
    }


def pump_end_record(at: float, decisions: int) -> Dict[str, object]:
    return {"t": PUMP_END, "at": at, "decisions": decisions}


def snapshot_record(at: float, state: Dict[str, object]) -> Dict[str, object]:
    return {"t": SNAPSHOT, "at": at, "state": state}


# -- semantic validation ----------------------------------------------------


def check_records(records: Sequence[Mapping[str, object]]) -> None:
    """Semantic pass over frame-valid records; raises JournalCorruptError.

    Enforces what the framing layer cannot see: a journal opens with an
    ``init`` record of a supported schema version, every record type is
    known, and ``init`` never recurs mid-log.
    """
    if not records:
        raise JournalCorruptError("journal holds no complete record")
    head = records[0]
    if head.get("t") != INIT:
        raise JournalCorruptError(
            f"journal must open with an {INIT!r} record, got {head.get('t')!r}",
            line=1,
        )
    version = head.get("v")
    if version != SCHEMA_VERSION:
        raise JournalCorruptError(
            f"unsupported journal schema version {version!r} "
            f"(this reader supports only {SCHEMA_VERSION})",
            line=1,
        )
    for line_no, record in enumerate(records[1:], start=2):
        kind = record.get("t")
        if kind not in ALL_TYPES:
            raise JournalCorruptError(f"unknown record type {kind!r}", line=line_no)
        if kind == INIT:
            raise JournalCorruptError("unexpected mid-log init record", line=line_no)
