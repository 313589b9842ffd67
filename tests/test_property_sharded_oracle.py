"""Property test: every queue backend is a bit-identical oracle.

For random interleavings of interactive submissions, timed enqueues, and
intermediate pumps over a multi-island monorepo, the sharded queue
backend (``sharded:N`` for any N >= 1) must reproduce the monolithic
no-backend path exactly: the same decision
sequence — ids, verdicts, and decision times — and the same
:func:`fingerprint_digest` at rest.  The pool deliberately includes a
broken change, a hand-built cross-island straddler, and a structural
(BUILD-adding) change, so the scripts exercise rejection, the straddler
shard, and mid-run repartitioning; variants pin the same identity under
the risk-batching strategy and the process build backend.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, next_change_id, next_revision_id
from repro.journal import fingerprint_digest
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: Two islands merged into one snapshot: disjoint connected components,
#: so ``sharded:2`` actually routes to distinct partitions.
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


def _make_straddler():
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
        {path: FILES[path] + f"# straddle {i}\n" for i, path in enumerate(paths)},
        base={path: FILES[path] for path in paths},
    )
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=_ISLANDS[0].developers[0],
        patch=patch,
        submitted_at=0.0,
        description="cross-island straddler",
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
    _make_straddler(),
    _ISLANDS[0].make_broken_change(
        target_name=_ISLANDS[0].target_names()[1], submitted_at=0.0
    ),
    _ISLANDS[0].make_structural_change(submitted_at=0.0),
    _ISLANDS[1].make_clean_change(
        target_name=_ISLANDS[1].target_names()[2], submitted_at=0.0
    ),
]
MAX_CHANGES = len(CHANGE_POOL)


def _drive(queue_backend, script, batching=False, build_backend=None):
    """Replay one drawn script against a fresh service; return the trace."""
    predictor = StaticPredictor(success=0.9, conflict=0.05)
    strategy = (
        RiskBatchStrategy(predictor)
        if batching
        else SubmitQueueStrategy(predictor)
    )
    service = CoreService(
        Repository(dict(FILES)),
        strategy,
        config=CoreServiceConfig(
            workers=3,
            queue_backend=queue_backend,
            build_backend=build_backend,
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
    trace = (
        tuple((d.change_id, d.committed, d.at) for d in decisions),
        fingerprint_digest(service),
    )
    service.close()
    return trace


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
def test_sharded_backends_match_monolithic_oracle(script):
    oracle = _drive(None, script)
    assert _drive("sharded:1", script) == oracle
    assert _drive("sharded:3", script) == oracle


@given(script=scripts())
@settings(max_examples=10, deadline=None)
def test_sharding_identity_holds_under_batching(script):
    oracle = _drive(None, script, batching=True)
    assert _drive("sharded:2", script, batching=True) == oracle


def test_sharding_identity_holds_on_process_backend():
    """Sharded queue + process build pool still matches the inline oracle."""
    script = [("submit", 0.0, False)] * 3 + [("enqueue", 1.0, True)] * 3
    oracle = _drive(None, script)
    assert _drive("sharded:2", script, build_backend="process:2") == oracle


def test_oracle_script_sanity():
    """A fixed dense script decides every change and rejects the broken one."""
    script = [("submit", 0.0, False)] * 3 + [("enqueue", 1.0, True)] * 3
    decisions, _ = _drive("sharded:2", script)
    assert len(decisions) == MAX_CHANGES
    verdicts = dict((cid, ok) for cid, ok, _ in decisions)
    assert sum(1 for ok in verdicts.values() if not ok) == 1  # the broken one
