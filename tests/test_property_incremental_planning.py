"""Property test: incremental selection ≡ from-scratch selection.

A single carried-over :class:`SpeculationEngine` (its per-change table:
dirty-cone commit probabilities + enumerator replay + probability
caches) must produce *bit-identical* selections — same builds, same
order, same values — as a fresh engine built from the same tables at
every round, across random interleavings of arrivals, decisions,
finished builds (speculation-counter bumps), reorders, batch planning
and budget changes, with any number of them between two rounds.  The
carried engine learns what moved only from the calls the planner makes
(``on_submit``, ``on_decision``, ``on_build_finished``, ``on_reorder``);
it never diffs the tables.  A second carried engine joins late: it has
no table until its first selection or batch plan, ignores the calls it
receives before that, and must build its table from the tables then
(mirrors ``test_property_incremental_analyzer`` for the conflict side).
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.predictor.predictors import Predictor
from repro.speculation.engine import SpeculationEngine

DEV = Developer("prop-dev")

ARRIVE, DECIDE, BUMP, REORDER, BATCH = 0, 1, 2, 3, 4

#: (op kind, selector seed, verdict/counter flavour, budget seed, run a
#: selection round after this step?).  The last step always runs one.
step_strategy = st.tuples(
    st.sampled_from(
        [ARRIVE, ARRIVE, ARRIVE, DECIDE, DECIDE, BUMP, REORDER, REORDER, BATCH]
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


def _arrive(pending, records, seed):
    """A new change whose pending ancestors are picked by ``seed``'s bits."""
    change = _mint_change()
    ancestors = [
        c.change_id for index, c in enumerate(pending) if (seed >> (index % 20)) & 1
    ]
    pending.append(change)
    records[change.change_id] = ChangeRecord(change=change, ancestors=ancestors)
    return records[change.change_id]


def _has_cycle(pending_ids, records):
    """Kahn's check over the pending-only ancestor edges."""
    indegree = {cid: 0 for cid in pending_ids}
    descendants = {}
    for cid in pending_ids:
        for ancestor in records[cid].ancestors:
            if ancestor in indegree:
                indegree[cid] += 1
                descendants.setdefault(ancestor, []).append(cid)
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for child in descendants.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return seen != len(pending_ids)


def _reorder(pending, records, seed):
    """``behind`` jumps ``ahead``: the planner's edge swap.  A swap that
    would close a cycle is refused and leaves both lists exactly as they
    were.  Returns ``(ahead, behind)`` when a swap was applied."""
    pending_ids = {p.change_id for p in pending}
    candidates = [
        c for c in pending
        if any(a in pending_ids for a in records[c.change_id].ancestors)
    ]
    if not candidates:
        return None
    behind = candidates[seed % len(candidates)].change_id
    behind_ancestors = records[behind].ancestors
    pending_ancestors = [a for a in behind_ancestors if a in pending_ids]
    ahead = pending_ancestors[seed % len(pending_ancestors)]
    index = behind_ancestors.index(ahead)
    del behind_ancestors[index]
    records[ahead].ancestors.append(behind)
    if _has_cycle(pending_ids, records):
        records[ahead].ancestors.pop()
        behind_ancestors.insert(index, ahead)
        return None
    return ahead, behind


def _plan_batches(engine, pending, records, decided, changes_by_id):
    """What :class:`RiskBatchStrategy` asks before its selection: batches
    over the pending changes whose ancestors are all decided."""
    candidates = [
        c.change_id for c in pending
        if all(a in decided for a in records[c.change_id].ancestors)
    ]
    return engine.plan_risk_batches(
        candidates, pending, records, changes_by_id, batch_size=4,
        member_confidence=0.0, max_pair_conflict=1.0, min_joint_success=0.0,
    )


class TestIncrementalSelectionEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=30),
           join=st.integers(min_value=0, max_value=30))
    # A jumper decided before the next round: the jumped change's pending
    # ancestors read as before the reorder, but it gained a committed one.
    @example(
        steps=[
            (ARRIVE, 0, False, 1, False),
            (ARRIVE, 0, False, 1, False),
            (DECIDE, 0, False, 1, False),
            (ARRIVE, 1, False, 1, True),
            (REORDER, 0, False, 1, False),
            (DECIDE, 0, True, 1, False),
        ],
        join=0,
    )
    def test_carried_over_engine_matches_fresh(self, steps, join):
        predictor = HashPredictor()
        pushed = SpeculationEngine(predictor)
        late = SpeculationEngine(predictor)  # told nothing before ``join``
        engines = [pushed]

        pending = []  # arrival order
        records = {}
        decided = {}
        changes_by_id = {}

        for position, (kind, seed, flag, budget, run_round) in enumerate(steps):
            if position == join:
                engines.append(late)
            if kind == ARRIVE:
                record = _arrive(pending, records, seed)
                changes_by_id[record.change_id] = record.change
                for engine in engines:
                    engine.on_submit(record)
            elif kind == DECIDE:
                # Planner decisions settle changes whose ancestors are all
                # decided; pick one such, if any.
                ready = [
                    c for c in pending
                    if all(a in decided for a in records[c.change_id].ancestors)
                ]
                if ready:
                    victim = ready[seed % len(ready)]
                    decided[victim.change_id] = flag
                    pending = [c for c in pending if c is not victim]
                    for engine in engines:
                        engine.on_decision(victim.change_id)
            elif kind == BUMP:
                if pending:
                    record = records[pending[seed % len(pending)].change_id]
                    if flag:
                        record.speculations_succeeded += 1
                    else:
                        record.speculations_failed += 1
                    for engine in engines:
                        engine.on_build_finished(record.change_id)
            elif kind == REORDER:
                swapped = _reorder(pending, records, seed)
                if swapped is not None:
                    for engine in engines:
                        engine.on_reorder(*swapped)
            else:  # BATCH: batch planning touches the table first
                for engine in engines:
                    _plan_batches(engine, pending, records, decided, changes_by_id)

            if not run_round and position != len(steps) - 1:
                continue  # let several events pile up before a round
            fresh_selection = SpeculationEngine(predictor).select_builds(
                pending, records, decided, budget, changes_by_id=changes_by_id
            )
            # Frozen-dataclass equality: same keys, same order, and the
            # floats (value, conditional_success) bit-identical.
            for engine in engines:
                assert engine.select_builds(
                    pending, records, decided, budget,
                    changes_by_id=changes_by_id,
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
        records = {}
        for _kind, seed, _flag, _budget, _run_round in steps:
            _arrive(pending, records, seed)
        changes_by_id = {c.change_id: c for c in pending}
        first = engine.select_builds(
            pending, records, {}, 6, changes_by_id=changes_by_id
        )
        for _ in range(repeats):
            again = engine.select_builds(
                pending, records, {}, 6, changes_by_id=changes_by_id
            )
            assert again == first


class TestTableBuiltAtFirstTouch:
    """An engine without a table ignores what it is told and builds the
    table from the tables it is handed first: told about one arrival,
    one finished build, one decision and one reorder before its first
    round, it still selects what a fresh engine selects."""

    @staticmethod
    def tables():
        pending, records = [], {}
        # Each change lists every earlier one: a chain with extra edges.
        for _ in range(6):
            _arrive(pending, records, 2**20 - 1)
        changes_by_id = {c.change_id: c for c in pending}
        return pending, records, changes_by_id

    def tell(self, engine, pending, records, decided, changes_by_id):
        """Events the engine hears about before its first touch."""
        head = pending.pop(0)
        decided[head.change_id] = True
        engine.on_decision(head.change_id)
        bumped = records[pending[1].change_id]
        bumped.speculations_failed += 1
        engine.on_build_finished(bumped.change_id)
        swapped = _reorder(pending, records, 3)
        assert swapped is not None
        engine.on_reorder(*swapped)
        record = _arrive(pending, records, 0b101)
        changes_by_id[record.change_id] = record.change
        engine.on_submit(record)

    def test_pushes_before_the_first_round_are_ignored(self):
        predictor = HashPredictor()
        pending, records, changes_by_id = self.tables()
        decided = {}
        engine = SpeculationEngine(predictor)
        self.tell(engine, pending, records, decided, changes_by_id)
        fresh = SpeculationEngine(predictor).select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        )
        assert fresh
        assert engine.select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        ) == fresh

    def test_batch_planning_may_build_the_table(self):
        predictor = HashPredictor()
        pending, records, changes_by_id = self.tables()
        decided = {}
        engine = SpeculationEngine(predictor)
        self.tell(engine, pending, records, decided, changes_by_id)
        # The arrival listing nothing pending is a second candidate.
        independent = _arrive(pending, records, 0)
        changes_by_id[independent.change_id] = independent.change
        engine.on_submit(independent)
        assert _plan_batches(engine, pending, records, decided, changes_by_id)
        fresh = SpeculationEngine(predictor).select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        )
        assert engine.select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        ) == fresh

    def test_invalidated_engine_rebuilds_its_table(self):
        predictor = HashPredictor()
        pending, records, changes_by_id = self.tables()
        decided = {}
        engine = SpeculationEngine(predictor)
        engine.select_builds(pending, records, decided, 8, changes_by_id=changes_by_id)
        engine.invalidate_carry_over()
        self.tell(engine, pending, records, decided, changes_by_id)
        fresh = SpeculationEngine(predictor).select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        )
        assert engine.select_builds(
            pending, records, decided, 8, changes_by_id=changes_by_id
        ) == fresh
