"""Equations 1–5: the probabilistic model behind speculation.

Notation (section 4.2): for a build ``B_{S.C}`` that applies change ``C``
on top of an assumed-committed set ``S`` of its conflicting ancestors,

* the probability the build's result is *needed* generalizes Equations
  1–3 and 5: the realized outcome set of ``C``'s ancestors must equal
  ``S``::

      P_needed(B_{S.C}) = Π_{a∈S} P_commit(a) · Π_{a∈anc(C)\\S} (1 - P_commit(a))

* ``P_commit(a)`` — the probability an ancestor ends up committing — is
  estimated in submission order with the multiplicative form::

      P_commit(C) = P_succ(C) · Π_{a∈anc(C)} (1 - P_commit(a)·P_conf(a, C))

  For small conflict probabilities this agrees with the paper's
  Equation 4 subtraction (its first-order expansion), but it does not
  saturate at zero when a change has hundreds of conflicting ancestors —
  which real monorepo queues do (Figure 1's dense conflict regime).
  Already-decided ancestors contribute exactly 0 or 1, which is how build
  values sharpen as outcomes arrive (the "react to build successes or
  failures" behaviour of section 4.2.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.types import ChangeId

#: Probability a change commits, per change id.
CommitProbabilities = Dict[ChangeId, float]


def estimate_commit_probabilities(
    order: Sequence[ChangeId],
    ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
    decided: Optional[Mapping[ChangeId, bool]] = None,
) -> CommitProbabilities:
    """Estimate ``P_commit`` for every change, in submission order.

    ``order`` must list changes oldest-first; every ancestor of a change
    must appear in ``order`` or in ``decided``.  With change reordering
    (section 10) the ancestor DAG need not follow submission order, so
    this is a worklist fixpoint: each pass processes the changes whose
    ancestors are all known and defers the rest.
    """
    decided = decided or {}
    result: CommitProbabilities = {}
    for change_id, committed in decided.items():
        result[change_id] = 1.0 if committed else 0.0
    remaining: List[ChangeId] = [cid for cid in order if cid not in result]
    while remaining:
        deferred: List[ChangeId] = []
        for change_id in remaining:
            if any(a not in result for a in ancestors.get(change_id, ())):
                deferred.append(change_id)
                continue
            p = p_success(change_id)
            for ancestor_id in ancestors.get(change_id, ()):
                p_anc = result[ancestor_id]
                if p_anc > 0.0:
                    p *= 1.0 - p_anc * p_conflict(ancestor_id, change_id)
            result[change_id] = min(1.0, max(0.0, p))
        if len(deferred) == len(remaining):
            raise KeyError(
                "ancestor cycle or missing ancestors for: "
                + ", ".join(sorted(deferred)[:5])
            )
        remaining = deferred
    return result


def p_needed(
    assumed: Iterable[ChangeId],
    all_ancestors: Iterable[ChangeId],
    commit_probabilities: Mapping[ChangeId, float],
) -> float:
    """Probability the build keyed by ``assumed`` will decide its change.

    Equations 1–3/5 generalized: each ancestor in the assumed set must
    commit, each ancestor outside it must not.
    """
    assumed_set = set(assumed)
    probability = 1.0
    for ancestor_id in all_ancestors:
        p_commit = commit_probabilities[ancestor_id]
        probability *= p_commit if ancestor_id in assumed_set else (1.0 - p_commit)
        if probability == 0.0:
            break
    return probability

