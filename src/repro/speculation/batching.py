"""Risk-aware batch planning over the section-7.2 predictor.

The paper's SubmitQueue builds one speculation path per pending change, so
at high arrival rates the worker pool saturates and throughput flat-lines
(the Figure 12 ceiling).  This module plans *speculative batches*: groups
of pending changes the predictor scores as jointly low-risk, built as a
single stacked speculation node, so at saturation each worker slot
decides several changes per build instead of one.  A batch is its member
ids in submission order.  Batches are formed greedily in that order under
three predictor gates (per-member success, pairwise conflict, joint
success); nothing prices or ranks them, and the strategy selects them
ahead of ordinary speculation.

Unlike Chromium-style batching (``repro.strategies.batch``, the paper's
critique), batch membership here never weakens the shippable-commit
guarantee: a passing batch commits each member individually, and a failing
batch is bisected deterministically until every culprit is isolated — the
strategy layer (:mod:`repro.strategies.risk_batch`) owns that protocol;
this module owns only the risk math and the greedy grouping.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.types import ChangeId

#: Default cap on members per speculative batch.
DEFAULT_BATCH_SIZE = 4

#: Default per-member success floor: changes the predictor is not
#: confident about build alone, where a failure costs one build, not a
#: bisection cascade.
DEFAULT_MEMBER_CONFIDENCE = 0.75

#: Default ceiling on the predicted pairwise conflict probability between
#: any two members.
DEFAULT_MAX_PAIR_CONFLICT = 0.15

#: Default floor on the whole batch's joint success probability.
DEFAULT_MIN_JOINT_SUCCESS = 0.45


def joint_success_probability(
    members: Sequence[ChangeId],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
) -> float:
    """Probability that a stacked build of ``members`` passes.

    Independence-approximated, mirroring the Equation 1-5 treatment: the
    product of every member's individual success probability times, for
    every ordered pair, the probability the pair does *not* conflict.
    """
    joint = 1.0
    for change_id in members:
        joint *= min(1.0, max(0.0, p_success(change_id)))
    for index, first in enumerate(members):
        for second in members[index + 1:]:
            joint *= min(1.0, max(0.0, 1.0 - p_conflict(first, second)))
    return min(1.0, max(0.0, joint))


def plan_batches(
    candidates: Sequence[ChangeId],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
    batch_size: int = DEFAULT_BATCH_SIZE,
    member_confidence: float = DEFAULT_MEMBER_CONFIDENCE,
    max_pair_conflict: float = DEFAULT_MAX_PAIR_CONFLICT,
    min_joint_success: float = DEFAULT_MIN_JOINT_SUCCESS,
) -> List[Tuple[ChangeId, ...]]:
    """Greedily group ``candidates`` into jointly-low-risk batches, each
    its member ids in submission order.

    ``candidates`` must already be eligible (pending, every conflicting
    ancestor decided) and in submission order; grouping preserves that
    order so commit order stays fair.  A candidate joins the open batch
    when it passes the per-member confidence gate, every pairwise conflict
    against current members stays under ``max_pair_conflict``, and the
    batch's joint success stays at or above ``min_joint_success``;
    otherwise it opens the next batch.  Groups that end up singletons are
    dropped — those changes flow through the normal one-path speculation.

    Deterministic: a pure function of the candidate order and the
    predictor callables.
    """
    if batch_size < 2:
        return []
    plans: List[Tuple[ChangeId, ...]] = []
    group: List[ChangeId] = []

    def flush() -> None:
        if len(group) >= 2:
            plans.append(tuple(group))
        group.clear()

    for candidate in candidates:
        if p_success(candidate) < member_confidence:
            flush()
            continue
        if group:
            fits = (
                len(group) < batch_size
                and all(
                    p_conflict(member, candidate) <= max_pair_conflict
                    for member in group
                )
                and joint_success_probability(
                    group + [candidate], p_success, p_conflict
                )
                >= min_joint_success
            )
            if not fits:
                flush()
        group.append(candidate)
    flush()
    return plans


def bisect_halves(
    members: Sequence[ChangeId],
) -> Tuple[Tuple[ChangeId, ...], Tuple[ChangeId, ...]]:
    """Deterministic split of a failed batch into two order-preserving halves.

    The left half keeps the earlier-submitted members, so when it passes
    those commit first — the passing-prefix guarantee.  Both halves are
    strictly smaller than the input (which must have >= 2 members), so the
    bisection recursion terminates at singletons, where the planner's
    normal decisive-build rule isolates the culprit exactly.
    """
    if len(members) < 2:
        raise ValueError("cannot bisect fewer than two members")
    mid = len(members) // 2
    return tuple(members[:mid]), tuple(members[mid:])
