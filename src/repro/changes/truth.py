"""Ground-truth evaluation for label-mode changes.

Label-mode workloads fix every build outcome *at generation time* so that
all strategies (and the Oracle used for normalization) observe identical
truths for identical change streams.  Pairwise real conflicts are decided
by a deterministic coin derived from both changes' ``conflict_salt``
values, so no ordering or strategy can perturb them.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

from repro.changes.change import Change, GroundTruth

#: Memoized pairwise real-conflict verdicts, keyed by sorted change-id
#: pair.  Change ids are globally unique (monotonic counter), so entries
#: never collide across workloads; the hot simulation loops evaluate the
#: same pairs millions of times.
_REAL_CONFLICT_CACHE: Dict[Tuple[str, str], bool] = {}


def _require_truth(change: Change) -> GroundTruth:
    if change.ground_truth is None:
        raise ValueError(f"change {change.change_id} carries no ground truth")
    return change.ground_truth


def potential_conflict(first: Change, second: Change) -> bool:
    """Do the two changes overlap in *affected targets* (analyzer notion)?

    This is the relation the conflict analyzer computes from target-hash
    deltas; on deep build graphs it is dense because most changes affect
    shared high-level targets (section 8.4).
    """
    if first.change_id == second.change_id:
        return False
    truth_a = _require_truth(first)
    truth_b = _require_truth(second)
    return bool(truth_a.target_names & truth_b.target_names)


def module_overlap(first: Change, second: Change) -> bool:
    """Do the two changes touch the same fine-grained logical parts?

    This is Figure 1's "touch the same logical parts of a repository":
    the necessary condition for a *real* conflict.  It implies
    :func:`potential_conflict` but is much rarer on deep graphs.
    """
    if first.change_id == second.change_id:
        return False
    truth_a = _require_truth(first)
    truth_b = _require_truth(second)
    return bool(truth_a.fine_names() & truth_b.fine_names())


def _pair_coin(first: Change, second: Change) -> float:
    """Deterministic uniform in [0, 1) for an unordered change pair."""
    salt_a = _require_truth(first).conflict_salt
    salt_b = _require_truth(second).conflict_salt
    low, high = sorted((salt_a, salt_b))
    digest = hashlib.sha256(f"{low}:{high}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def real_conflict(first: Change, second: Change) -> bool:
    """Would the two changes pass individually but fail combined?

    Real conflicts are a random subset of potential conflicts: the pair
    coin is compared against the combined real-conflict rate
    ``1 - sqrt((1-q_a)(1-q_b))`` (geometric-mean escalation, so a pair of
    risky changes conflicts more often than either rate alone).
    """
    key = (
        (first.change_id, second.change_id)
        if first.change_id <= second.change_id
        else (second.change_id, first.change_id)
    )
    cached = _REAL_CONFLICT_CACHE.get(key)
    if cached is not None:
        return cached
    if not module_overlap(first, second):
        verdict = False
    else:
        rate_a = _require_truth(first).real_conflict_rate
        rate_b = _require_truth(second).real_conflict_rate
        combined = 1.0 - ((1.0 - rate_a) * (1.0 - rate_b)) ** 0.5
        verdict = _pair_coin(first, second) < combined
    _REAL_CONFLICT_CACHE[key] = verdict
    return verdict


def stack_outcome(changes: "list[Change]") -> bool:
    """Ground-truth outcome of building a whole stack ``H ⊕ C1 ⊕ ... ⊕ Ck``.

    The stacked build passes iff every change passes individually and no
    pair really conflicts.  Builds that mis-speculate on a broken or
    conflicting predecessor therefore fail realistically (the broken code
    is in the tree being built), which is what makes optimistic execution
    pay for its assumptions.

    Only pairs sharing a fine-grained module can conflict, so the pair
    scan is bucketed by module instead of quadratic over the stack —
    Zuul-style all-ahead stacks run hundreds of changes deep.
    """
    for change in changes:
        if not _require_truth(change).individually_ok:
            return False
    members_by_module: "dict[str, list[Change]]" = {}
    for change in changes:
        for module in _require_truth(change).fine_names():
            bucket = members_by_module.setdefault(module, [])
            for other in bucket:
                if real_conflict(change, other):
                    return False
            bucket.append(change)
    return True


def build_outcome(change: Change, assumed: Iterable[Change]) -> bool:
    """Ground-truth outcome of the build ``H ⊕ assumed ⊕ change``.

    The build passes iff the change passes individually and really
    conflicts with none of the changes it is stacked on.  (Pairwise
    composition matches the paper's conflict definition in section 2.1.)
    """
    truth = _require_truth(change)
    if not truth.individually_ok:
        return False
    return all(not real_conflict(change, other) for other in assumed)
