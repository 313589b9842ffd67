"""Property test (S3): the process backend is a bit-identical oracle.

For *random interleavings* of interactive submissions, timed enqueues,
and intermediate pumps, the ``process:2`` worker pool must reproduce the
backend-less service exactly: the same decision sequence — ids,
verdicts, and decision times — the same :func:`fingerprint_digest` after every submit and every pump,
and the same ``events.jsonl`` byte for byte.  There is one tempo —
dispatch at plan time, resolve at the next quiescent point — so where
the builds physically ran must not be observable at all.
"""

import copy
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal import JournalWriter, fingerprint_digest
from repro.journal.sink import events_path
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

MAX_CHANGES = 6

#: Minted exactly once (change ids come from a process-global counter);
#: every mirrored run deep-copies a prefix over a private snapshot copy.
_SYNTH = SyntheticMonorepo(MonorepoSpec(layers=(3, 4, 3), fan_in=2), seed=11)
_TARGETS = _SYNTH.target_names()
CHANGE_POOL = [
    _SYNTH.make_clean_change(
        target_name=_TARGETS[(3 * index) % len(_TARGETS)], submitted_at=0.0
    )
    for index in range(MAX_CHANGES - 1)
]
CHANGE_POOL.append(
    _SYNTH.make_broken_change(target_name=_TARGETS[1], submitted_at=0.0)
)
FILES = _SYNTH.repo.snapshot().to_dict()


def _drive(backend, script):
    """Replay one drawn script against a fresh journaled service.

    Returns ``(decisions, fingerprints after every op and pump, journal
    bytes)`` — everything a driver or an operator can observe.
    """
    with tempfile.TemporaryDirectory() as journal_dir:
        writer = JournalWriter(journal_dir)
        service = CoreService(
            Repository(dict(FILES)),
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
            config=CoreServiceConfig(
                workers=3, build_backend=backend, journal=writer
            ),
        )
        batch = copy.deepcopy(CHANGE_POOL)
        decisions = []
        fingerprints = []
        for index, (op, at, pump_after) in enumerate(script):
            change = batch[index]
            if op == "submit":
                service.submit(change)
            else:
                service.enqueue(change, at=at)
            fingerprints.append(fingerprint_digest(service))
            if pump_after:
                decisions.extend(service.pump())
                fingerprints.append(fingerprint_digest(service))
        decisions.extend(service.pump())
        fingerprints.append(fingerprint_digest(service))
        service.close()
        writer.close()
        with open(events_path(journal_dir), "rb") as handle:
            journal = handle.read()
    return (
        tuple((d.change_id, d.committed, d.at) for d in decisions),
        fingerprints,
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
def test_parallel_backends_match_serial_oracle(script):
    oracle = _drive(None, script)
    assert _drive("process:2", script) == oracle


def test_oracle_script_sanity():
    """A fixed dense script decides every change and stays green."""
    script = [("submit", 0.0, False)] * 3 + [("enqueue", 1.0, True)] * 3
    decisions, _, journal = _drive(None, script)
    assert journal
    assert len(decisions) == MAX_CHANGES
    verdicts = dict((cid, ok) for cid, ok, _ in decisions)
    assert sum(1 for ok in verdicts.values() if not ok) == 1  # the broken one
