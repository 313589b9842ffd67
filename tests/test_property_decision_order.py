"""Property test: the ready-set decision step ≡ the full queue scan.

The planner decides from a per-change count of undecided ancestors and
visits only the changes whose count is zero;
:class:`tests.oracles.ScanningPlannerEngine` re-walks the whole queue
after every completion.  Random submit / plan / complete / reorder
scripts must leave both with the same decision log — same changes, same
verdicts, same order — after every step, under:

* ``SubmitQueueStrategy`` and ``ReorderingSubmitQueueStrategy``
  (reorders move a unit of the count between two changes);
* ``OptimisticStrategy``, whose all-ahead builds decide a change only
  once every non-ancestor they stack has committed (committed extras);
* ``RiskBatchStrategy``, whose batch builds decide members through
  ``interpret``, possibly ahead of the default rule.

A second property journals a full-stack run, kills the journal at a
random append, recovers and finishes it, and compares its decision log
with an uninterrupted run under the scanning planner.
"""

import hashlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.journal import (
    CrashingJournal,
    JournalWriter,
    SimulatedCrashError,
    events_path,
    recover,
    state_fingerprint,
)
from repro.planner.controller import LabelBuildController
from repro.planner.planner import Decision, PlannerEngine
from repro.planner.workers import WorkerPool
from repro.predictor.predictors import Predictor, StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.reordering import ReorderingSubmitQueueStrategy
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey
from repro.workload.repo_synth import SyntheticMonorepo

from .conftest import start_builds
from .journal_harness import (
    REPO_SEED,
    SNAPSHOT_EVERY,
    SPEC,
    drive,
    finish_after_recovery,
    mint_changes,
    script_ops,
)
from .oracles import ScanningPlannerEngine

DEV = Developer("order-dev")


class SpreadPredictor(Predictor):
    """Per-change probabilities from id hashes, wide enough that the
    reordering strategy finds doomed predecessors and healthy jumpers."""

    def p_success(self, change, record=None):
        digest = hashlib.sha1(change.change_id.encode()).digest()
        return (0.1, 0.5, 0.9, 0.95)[digest[0] % 4]

    def p_conflict(self, first, second):
        return 0.2


STRATEGIES = {
    "submitqueue": lambda: SubmitQueueStrategy(StaticPredictor(0.8, 0.1)),
    "reordering": lambda: ReorderingSubmitQueueStrategy(
        SpreadPredictor(), max_jumps=2
    ),
    "optimistic": OptimisticStrategy,
    "risk-batch": lambda: RiskBatchStrategy(
        StaticPredictor(0.95, 0.02), batch_size=3
    ),
}

SUBMIT, PLAN, COMPLETE, REORDER = range(4)

#: (op, selector, flavour): the selector picks a build, a reorder pair or
#: a change's targets; the flavour decides whether a submission is broken.
step_strategy = st.tuples(
    st.sampled_from(
        [SUBMIT, SUBMIT, PLAN, PLAN, COMPLETE, COMPLETE, COMPLETE, REORDER, REORDER]
    ),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=9),
)


def _label_change(selector, flavour):
    """A label-mode change on one or two of five targets; one in five
    fails alone, and overlapping changes really conflict half the time."""
    targets = {f"//t{selector % 5}"}
    if selector & 8:
        targets.add(f"//t{(selector >> 4) % 5}")
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEV,
        ground_truth=GroundTruth(
            individually_ok=flavour >= 2,
            target_names=frozenset(targets),
            conflict_salt=selector,
            real_conflict_rate=0.5,
        ),
        build_duration=30.0,
    )


class _Run:
    """One planner driven by hand: its in-flight builds, oldest first."""

    def __init__(self, engine_class, strategy):
        self.planner = engine_class(
            strategy=strategy,
            controller=LabelBuildController(),
            workers=WorkerPool(2),
            conflict_predicate=potential_conflict,
        )
        self.in_flight = []

    def plan(self, now):
        self.planner.plan(now)
        for batch in self.planner.resolve_pending():
            self.in_flight.extend(build.key for build in batch.live)

    def complete(self, index, now):
        key = self.in_flight.pop(index % len(self.in_flight))
        self.planner.complete(key, now)

    def reorder_pairs(self):
        """Every (ahead, behind) swap the planner would consider."""
        planner = self.planner
        pending = planner.conflict_graph
        return [
            (ahead, behind)
            for behind in pending.in_order()
            for ahead in planner.records[behind].ancestors
            if ahead in pending
        ]


def _step(run, op, selector, change, now):
    if op == SUBMIT:
        run.planner.submit(change, now)
    elif op == PLAN:
        run.plan(now)
    elif op == COMPLETE and run.in_flight:
        run.complete(selector, now)
    elif op == REORDER:
        pairs = run.reorder_pairs()
        if pairs:
            run.planner.reorder(*pairs[selector % len(pairs)])


def _assert_same(run, reference):
    assert run.planner.decisions() == reference.planner.decisions()
    assert run.in_flight == reference.in_flight
    assert run.planner.conflict_graph.in_order() == (
        reference.planner.conflict_graph.in_order()
    )


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(steps=st.lists(step_strategy, min_size=1, max_size=80))
@settings(max_examples=80, deadline=None)
def test_decision_log_equals_full_scan(name, steps):
    run = _Run(PlannerEngine, STRATEGIES[name]())
    reference = _Run(ScanningPlannerEngine, STRATEGIES[name]())
    now = 0.0
    for op, selector, flavour in steps:
        now += 1.0
        change = _label_change(selector, flavour) if op == SUBMIT else None
        _step(run, op, selector, change, now)
        _step(reference, op, selector, change, now)
        _assert_same(run, reference)
    # Drain as the service does.  With nothing in flight (a stall) decide
    # what a reorder left decidable; otherwise the stall guard starts the
    # oldest ready change's decisive build — so nothing is left pending.
    while run.planner.pending_count():
        now += 1.0
        run.plan(now)
        reference.plan(now)
        _assert_same(run, reference)
        if not run.in_flight:
            decided = run.planner.decide_ready(now)
            reference.planner.decide_ready(now)
            _assert_same(run, reference)
            if not decided:
                break
        while run.in_flight:
            run.complete(0, now)
            reference.complete(0, now)
            _assert_same(run, reference)
    assert run.planner.pending_count() == 0
    assert reference.planner.pending_count() == 0


class VerdictOnEveryBuild(SubmitQueueStrategy):
    """Turns every finished build into its change's verdict, whether or
    not the change's ancestors are decided yet."""

    def interpret(self, key, success, view, now):
        if key.change_id in view.decided:
            return []
        return [Decision(key.change_id, success, now, reason="own verdict")]


def test_verdict_ahead_of_an_ancestor_matches_full_scan():
    """A strategy's verdict on a change whose ancestor is still pending
    counts against the change's dependents only, not its ancestors."""
    runs = [
        _Run(engine, VerdictOnEveryBuild(StaticPredictor(0.9, 0.1)))
        for engine in (PlannerEngine, ScanningPlannerEngine)
    ]
    first, middle, last = (_label_change(0, 9) for _ in range(3))
    for run in runs:
        for change in (first, middle, last):
            run.planner.submit(change, 0.0)
        # ``last`` waits on both; ``middle`` is decided before ``first``.
        start_builds(
            run.planner,
            [
                BuildKey(middle.change_id, frozenset({first.change_id})),
                BuildKey(first.change_id),
            ],
            0.0,
        )
        run.planner.complete(
            BuildKey(middle.change_id, frozenset({first.change_id})), 1.0
        )
        assert run.planner.decisive_key(last.change_id) is None
        run.planner.complete(BuildKey(first.change_id), 2.0)
        assert run.planner.decisive_key(last.change_id) == BuildKey(
            last.change_id, frozenset({first.change_id, middle.change_id})
        )
    assert [d.change_id for d in runs[0].planner.decisions()] == [
        middle.change_id,
        first.change_id,
    ]
    _assert_same(*runs)


# -- after a crash and recover() ----------------------------------------------

CHANGES = mint_changes()
#: One worker keeps the queue deeper than the fleet, so batches form.
WORKERS = 1

#: The scanning planner's decision log and fingerprint, per (strategy,
#: script).  Reference runs are pure, so each is computed once.
_REFERENCES = {}


def _service(strategy, journal=None):
    repo = SyntheticMonorepo(SPEC, seed=REPO_SEED).repo
    return CoreService(
        repo, strategy, config=CoreServiceConfig(workers=WORKERS, journal=journal)
    )


def _scanning_reference(name, ops):
    key = (name, tuple(ops))
    if key not in _REFERENCES:
        with tempfile.TemporaryDirectory() as tmp:
            writer = JournalWriter(tmp, snapshot_every=SNAPSHOT_EVERY)
            with mock.patch(
                "repro.service.core.PlannerEngine", ScanningPlannerEngine
            ):
                service = _service(STRATEGIES[name](), journal=writer)
            assert isinstance(service.planner, ScanningPlannerEngine)
            drive(service, CHANGES, ops)
            writer.close()
            appends = open(events_path(tmp), "rb").read().count(b"\n")
        _REFERENCES[key] = (
            service.planner.decisions(),
            state_fingerprint(service),
            appends,
        )
    return _REFERENCES[key]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_recovered_decision_log_equals_full_scan(name, data):
    count = data.draw(st.integers(min_value=3, max_value=len(CHANGES)))
    pump_after = data.draw(
        st.lists(st.booleans(), min_size=count, max_size=count)
    )
    ops = script_ops(count, pump_after)
    decisions, fingerprint, appends = _scanning_reference(name, ops)
    crash_after = data.draw(st.integers(min_value=1, max_value=appends))
    with tempfile.TemporaryDirectory() as tmp:
        writer = JournalWriter(tmp, snapshot_every=SNAPSHOT_EVERY)
        try:
            drive(
                _service(
                    STRATEGIES[name](), journal=CrashingJournal(writer, crash_after)
                ),
                CHANGES,
                ops,
            )
        except SimulatedCrashError:
            pass
        writer.close()
        report = recover(tmp, strategy=STRATEGIES[name]())
        finish_after_recovery(report, CHANGES, ops)
        assert report.service.planner.decisions() == decisions
        assert state_fingerprint(report.service) == fingerprint
