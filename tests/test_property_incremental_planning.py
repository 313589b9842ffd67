"""Property test: incremental selection ≡ from-scratch selection.

A single carried-over :class:`SpeculationEngine` (its per-change table:
dirty-cone commit probabilities + enumerator replay + probability
caches, plus the skip-round test) must produce *bit-identical*
selections — same builds, same order, same values — as a fresh engine
rebuilt from nothing at every round, across random interleavings of
arrivals, decisions, speculation-counter bumps, reorders, and budget
changes, with any number of them between two rounds.  Two carried
engines are held to it: one driven as a direct caller drives it (no
reorder signal: every ancestor list compared each round) and one driven
as :class:`SubmitQueueStrategy.select` drives it (``ancestry_version``
bumped exactly when a reorder is applied).  One rule moves ``decided``
behind the engines' backs — a verdict for a change that stays pending —
which the table's invariant does not cover: the round must run cold, not
answer from stale entries.  This is the correctness bar that makes the
planner's replan skip sound (mirrors
``test_property_incremental_analyzer`` for the conflict side).
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.predictor.predictors import Predictor
from repro.speculation.engine import SpeculationEngine

DEV = Developer("prop-dev")

ARRIVE, DECIDE, BUMP, REORDER, BEHIND = 0, 1, 2, 3, 4

#: (op kind, selector seed, verdict/counter flavour, budget seed, run a
#: selection round after this step?).  The last step always runs one.
step_strategy = st.tuples(
    st.sampled_from(
        [ARRIVE, ARRIVE, ARRIVE, DECIDE, DECIDE, BUMP, REORDER, REORDER, BEHIND]
    ),
    st.integers(min_value=0, max_value=2**20),
    st.booleans(),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)


class HashPredictor(Predictor):
    """Deterministic, record-sensitive probabilities from id hashes.

    Pure in ``(change id, speculation counters)`` / the id pair — exactly
    the determinism contract the engine's carry-over assumes — with no
    caches of its own, so the incremental and fresh engines exercise the
    model identically.
    """

    def p_success(self, change, record=None):
        succeeded = record.speculations_succeeded if record else 0
        failed = record.speculations_failed if record else 0
        digest = hashlib.sha1(
            f"{change.change_id}:{succeeded}:{failed}".encode()
        ).digest()
        return 0.05 + 0.9 * (digest[0] / 255.0)

    def p_conflict(self, first, second):
        low, high = sorted((first.change_id, second.change_id))
        digest = hashlib.sha1(f"{low}|{high}".encode()).digest()
        return 0.6 * (digest[0] / 255.0)


def _mint_change():
    # The HashPredictor never reads the ground truth; it only satisfies
    # the Change invariant (every change carries a patch or a label).
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=True, target_names=frozenset({"//prop"})
        ),
    )


def _has_cycle(pending_ids, ancestors):
    """Kahn's check over the pending-only ancestor edges."""
    indegree = {cid: 0 for cid in pending_ids}
    for cid in pending_ids:
        for ancestor in ancestors.get(cid, ()):
            if ancestor in indegree:
                indegree[cid] += 1
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    seen = 0
    descendants = {}
    for cid in pending_ids:
        for ancestor in ancestors.get(cid, ()):
            if ancestor in indegree:
                descendants.setdefault(ancestor, []).append(cid)
    while ready:
        node = ready.pop()
        seen += 1
        for child in descendants.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return seen != len(pending_ids)


def _reorder(pending, ancestors, seed):
    """``behind`` jumps ``ahead``: the planner's edge swap.  A swap that
    would close a cycle is refused and leaves both lists exactly as they
    were.  Returns whether a swap was applied."""
    pending_ids = {p.change_id for p in pending}
    candidates = [
        c for c in pending
        if any(a in pending_ids for a in ancestors[c.change_id])
    ]
    if not candidates:
        return False
    behind = candidates[seed % len(candidates)]
    behind_ancestors = ancestors[behind.change_id]
    pending_ancestors = [a for a in behind_ancestors if a in pending_ids]
    ahead = pending_ancestors[seed % len(pending_ancestors)]
    index = behind_ancestors.index(ahead)
    del behind_ancestors[index]
    ancestors[ahead].append(behind.change_id)
    if _has_cycle(pending_ids, ancestors):
        ancestors[ahead].pop()
        behind_ancestors.insert(index, ahead)
        return False
    return True


class TestIncrementalSelectionEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=30))
    # The stale answer the cold-round guard exists for: a round sees A and
    # its child B pending, then A gets a verdict without leaving the queue.
    @example(
        steps=[
            (ARRIVE, 0, False, 4, True),
            (ARRIVE, 1, False, 4, True),
            (BEHIND, 0, True, 4, True),
        ]
    )
    # A pending change with a verdict departs in the same gap as a second
    # change gets one: ``decided`` grows by one, as if only the departure
    # had happened, yet the second change's child must see it as decided.
    @example(
        steps=[
            (ARRIVE, 0, False, 1, False),
            (ARRIVE, 0, False, 1, False),
            (ARRIVE, 0b10, False, 1, False),
            (BEHIND, 0, False, 1, True),
            (DECIDE, 0, False, 1, False),
            (BEHIND, 0, False, 3, False),
        ]
    )
    def test_carried_over_engine_matches_fresh(self, steps):
        predictor = HashPredictor()
        direct = SpeculationEngine(predictor)  # no reorder signal
        signalled = SpeculationEngine(predictor)  # as the strategy drives it

        pending = []  # arrival order
        ancestors = {}
        records = {}
        decided = {}
        changes_by_id = {}
        ancestry_version = 0

        for position, (kind, seed, flag, budget, run_round) in enumerate(steps):
            if kind == ARRIVE:
                change = _mint_change()
                # Each bit of the seed decides one pending ancestor.
                change_ancestors = [
                    c.change_id
                    for index, c in enumerate(pending)
                    if (seed >> (index % 20)) & 1
                ]
                pending.append(change)
                ancestors[change.change_id] = change_ancestors
                records[change.change_id] = ChangeRecord(change=change)
                changes_by_id[change.change_id] = change
            elif kind == DECIDE:
                # Planner decisions settle changes whose ancestors are all
                # decided; pick one such, if any.
                ready = [
                    c for c in pending
                    if all(a in decided for a in ancestors[c.change_id])
                ]
                if ready:
                    victim = ready[seed % len(ready)]
                    # A verdict handed out behind the engines' backs stands.
                    decided.setdefault(victim.change_id, flag)
                    pending = [c for c in pending if c is not victim]
            elif kind == BUMP:
                if pending:
                    record = records[pending[seed % len(pending)].change_id]
                    if flag:
                        record.speculations_succeeded += 1
                    else:
                        record.speculations_failed += 1
            elif kind == REORDER:
                if _reorder(pending, ancestors, seed):
                    ancestry_version += 1
            else:  # BEHIND: a verdict for a change that stays pending
                undecided = [c for c in pending if c.change_id not in decided]
                if undecided:
                    decided[undecided[seed % len(undecided)].change_id] = flag

            if not run_round and position != len(steps) - 1:
                continue  # let several events pile up before a round
            fresh_selection = SpeculationEngine(predictor).select_builds(
                pending, ancestors, records, decided, budget,
                changes_by_id=changes_by_id,
            )
            # Frozen-dataclass equality: same keys, same order, and the
            # floats (value, p_needed, conditional_success) bit-identical.
            assert direct.select_builds(
                pending, ancestors, records, decided, budget,
                changes_by_id=changes_by_id,
            ) == fresh_selection
            assert signalled.select_builds(
                pending, ancestors, records, decided, budget,
                changes_by_id=changes_by_id,
                ancestry_version=ancestry_version,
            ) == fresh_selection

    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=12),
           repeats=st.integers(min_value=2, max_value=4))
    def test_repeated_rounds_are_stable(self, steps, repeats):
        """Re-selecting with untouched inputs always returns the same
        answer, however many times the engine is asked."""
        predictor = HashPredictor()
        engine = SpeculationEngine(predictor)
        pending = []
        ancestors = {}
        records = {}
        changes_by_id = {}
        for _kind, seed, _flag, _budget, _run_round in steps:
            change = _mint_change()
            change_ancestors = [
                c.change_id
                for index, c in enumerate(pending)
                if (seed >> (index % 20)) & 1
            ]
            pending.append(change)
            ancestors[change.change_id] = change_ancestors
            records[change.change_id] = ChangeRecord(change=change)
            changes_by_id[change.change_id] = change
        first = engine.select_builds(
            pending, ancestors, records, {}, 6, changes_by_id=changes_by_id
        )
        for _ in range(repeats):
            again = engine.select_builds(
                pending, ancestors, records, {}, 6, changes_by_id=changes_by_id
            )
            assert again == first
