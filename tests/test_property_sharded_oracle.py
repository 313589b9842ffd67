"""Property test: the indexed sweep against the full-sweep oracle.

For random interleavings of interactive submissions, timed enqueues, and
intermediate pumps over a multi-island monorepo, the service — which
checks each submission only against the analyzer's conflict candidates —
must reproduce a reference service exactly: one handed its own
analyzer's verdict as ``conflict_predicate`` and therefore asked about
every pending pair.  The same decision sequence — ids, verdicts, and
decision times — the same :func:`fingerprint_digest` at rest, and the
same ``events.jsonl`` byte for byte.  The pool deliberately includes a
broken change, a hand-built cross-island change, and a structural
(BUILD-adding) change, so the scripts exercise rejection, a change with
candidates in both islands, and a mid-run structural head advance;
variants pin the same identity under the risk-batching strategy and the
process build backend.
"""

import copy
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, next_change_id, next_revision_id
from repro.journal import JournalWriter, fingerprint_digest
from repro.journal.sink import events_path
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

from .conftest import full_sweep_service

#: Two islands merged into one snapshot: disjoint connected components,
#: so the index has whole islands to leave out of a sweep.
_ISLANDS = [
    SyntheticMonorepo(
        MonorepoSpec(layers=(2, 3, 2), fan_in=2, package_prefix=f"island{k}/"),
        seed=11 + k,
    )
    for k in range(2)
]
FILES = {}
for _synth in _ISLANDS:
    FILES.update(_synth.repo.snapshot().to_dict())


def _make_cross_island():
    """A clean change editing one source file in each island.

    Uses each target's *second* source so it stays textually disjoint
    from the pool's clean changes (which edit the first source) while
    still conflicting with them through the affected-target closure.
    """
    paths = [
        synth.graph.target(synth.target_names()[0]).srcs[1]
        for synth in _ISLANDS
    ]
    patch = Patch.modifying(
        {path: FILES[path] + f"# cross {i}\n" for i, path in enumerate(paths)},
        base={path: FILES[path] for path in paths},
    )
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=_ISLANDS[0].developers[0],
        patch=patch,
        submitted_at=0.0,
        description="cross-island",
    )


#: Minted exactly once (change ids come from a process-global counter);
#: every mirrored run deep-copies the pool over a private snapshot copy.
CHANGE_POOL = [
    _ISLANDS[0].make_clean_change(
        target_name=_ISLANDS[0].target_names()[0], submitted_at=0.0
    ),
    _ISLANDS[1].make_clean_change(
        target_name=_ISLANDS[1].target_names()[0], submitted_at=0.0
    ),
    _make_cross_island(),
    _ISLANDS[0].make_broken_change(
        target_name=_ISLANDS[0].target_names()[1], submitted_at=0.0
    ),
    _ISLANDS[0].make_structural_change(submitted_at=0.0),
    _ISLANDS[1].make_clean_change(
        target_name=_ISLANDS[1].target_names()[2], submitted_at=0.0
    ),
]
MAX_CHANGES = len(CHANGE_POOL)


def _drive(reference, script, batching=False, build_backend=None):
    """Replay one drawn script against a fresh journaled service.

    ``reference`` selects the full-sweep oracle.  Returns ``(decisions,
    fingerprint at rest, journal bytes)``.
    """
    predictor = StaticPredictor(success=0.9, conflict=0.05)
    strategy = (
        RiskBatchStrategy(predictor)
        if batching
        else SubmitQueueStrategy(predictor)
    )
    with tempfile.TemporaryDirectory() as journal_dir:
        writer = JournalWriter(journal_dir)
        service = (full_sweep_service if reference else CoreService)(
            Repository(dict(FILES)),
            strategy,
            config=CoreServiceConfig(
                workers=3, build_backend=build_backend, journal=writer
            ),
        )
        batch = copy.deepcopy(CHANGE_POOL)
        decisions = []
        for index, (op, at, pump_after) in enumerate(script):
            change = batch[index]
            if op == "submit":
                service.submit(change)
            else:
                service.enqueue(change, at=at)
            if pump_after:
                decisions.extend(service.pump())
        decisions.extend(service.pump())
        fingerprint = fingerprint_digest(service)
        service.close()
        writer.close()
        with open(events_path(journal_dir), "rb") as handle:
            journal = handle.read()
    return (
        tuple((d.change_id, d.committed, d.at) for d in decisions),
        fingerprint,
        journal,
    )


@st.composite
def scripts(draw):
    count = draw(st.integers(min_value=2, max_value=MAX_CHANGES))
    script = []
    for _ in range(count):
        op = draw(st.sampled_from(["submit", "enqueue"]))
        at = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]))
        pump_after = draw(st.booleans())
        script.append((op, at, pump_after))
    return script


@given(script=scripts())
@settings(max_examples=10, deadline=None)
def test_indexed_sweep_matches_full_sweep_oracle(script):
    assert _drive(False, script) == _drive(True, script)


@given(script=scripts())
@settings(max_examples=10, deadline=None)
def test_sweep_identity_holds_under_batching(script):
    assert _drive(False, script, batching=True) == _drive(
        True, script, batching=True
    )


def test_sweep_identity_holds_on_process_backend():
    """Indexed sweep + process build pool still matches the inline oracle."""
    script = [("submit", 0.0, False)] * 3 + [("enqueue", 1.0, True)] * 3
    assert _drive(False, script, build_backend="process:2") == _drive(True, script)


def test_oracle_script_sanity():
    """A fixed dense script decides every change and rejects the broken one."""
    script = [("submit", 0.0, False)] * 3 + [("enqueue", 1.0, True)] * 3
    decisions, _, journal = _drive(False, script)
    assert journal
    assert len(decisions) == MAX_CHANGES
    verdicts = dict((cid, ok) for cid, ok, _ in decisions)
    assert sum(1 for ok in verdicts.values() if not ok) == 1  # the broken one
