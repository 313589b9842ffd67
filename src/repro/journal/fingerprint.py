"""Canonical state fingerprints: the replay-determinism oracle.

:func:`state_fingerprint` reduces a ``CoreService`` to a JSON-native
structure covering everything behaviour-relevant — pending queue in
order, decision history, ledger rows, frozen ancestor lists, running
builds, scheduled events, repository content and health, and the
planner's aggregate counters.  Two services with equal fingerprints
make identical decisions on identical future inputs.

Deliberately excluded:

* raw commit ids (process-global counter; content digests stand in);
* cache *statistics* — analyzer, build-context, prefix, and artifact
  hit/miss counters measure how much work recovery skipped, not what the
  service will do next (a recovered service rebuilds some caches cold);
* the conflict analyzer's at-rest base: the service borrows it from the
  build controller lazily (built at the first conflict query, and
  re-pointed at the controller's advanced context on the next query
  after a commit, not on the commit), so at rest it may be absent, or
  an older head's context than a freshly restored service's — yet both
  adopt the same head's context before any query, and that context is a
  pure function of the head snapshot, which *is* fingerprinted
  (``repo.head_digest``);
* open trace spans and recorder state (observability, not behaviour).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict

from repro.journal.records import snapshot_digest


def state_fingerprint(service) -> Dict[str, object]:
    """A JSON-native digestible view of everything behaviour-relevant."""
    planner = service.planner
    repo = service.repo
    # Submissions scheduled via enqueue() but not yet accepted.  The key
    # appears only when non-empty so fingerprints of services that never
    # enqueue (every journal snapshot — pumps drain the queue first, and
    # all pre-overlap golden pins) are byte-stable.
    queued = sorted(
        [handle.time, handle.seq, handle.payload.change.change_id]
        for handle in service._submission_handles.values()
        if not handle.cancelled
    )
    extra: Dict[str, object] = {"queued": queued} if queued else {}
    return {
        **extra,
        "clock": service.clock.now,
        "repo": {
            "history_len": repo.mainline_length(),
            "green": repo.mainline_green_flags(),
            "head_digest": snapshot_digest(repo.snapshot().to_dict()),
        },
        "pending": planner.conflict_graph.in_order(),
        "decided": [[cid, v] for cid, v in planner.decided.items()],
        "decisions": [
            [d.change_id, d.committed, d.at, d.reason]
            for d in planner.decisions()
        ],
        "ledger": {
            record.change_id: [
                record.state.value,
                record.enqueued_at,
                record.decided_at,
                record.decision_reason,
                record.speculations_succeeded,
                record.speculations_failed,
                record.builds_scheduled,
                record.builds_aborted,
            ]
            for record in planner.records.values()
        },
        "ancestors": {
            cid: list(record.ancestors) for cid, record in planner.records.items()
        },
        "ancestry_version": planner.reorders_applied,
        "running": sorted(key.label() for key in planner.running),
        "scheduled": sorted(
            [handle.time, key.label()]
            for key, handle in service._completion_handles.items()
            if not handle.cancelled
        ),
        "stats": asdict(planner.stats),
    }


def fingerprint_digest(service) -> str:
    """SHA-256 over the canonical JSON encoding of the fingerprint."""
    payload = json.dumps(
        state_fingerprint(service),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
