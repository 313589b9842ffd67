"""Pickling regressions for the process backend (satellite S6).

Everything that crosses the process boundary — requests, responses —
must round-trip through pickle, and engine-bearing objects must stay
picklable (no lambda may ride on them).
"""

import pickle

import pytest

from repro.journal.records import encode_patch
from repro.parallel.payload import BuildRequest, BuildResponse, StepRecord
from repro.parallel.worker import execute_request, reset_worker_state
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


@pytest.fixture(scope="module")
def synth():
    return SyntheticMonorepo(MonorepoSpec(layers=(2, 3), fan_in=2), seed=13)


def _request(synth, change, assumed=(), traced=False):
    return BuildRequest(
        build_id=7,
        change_id=change.change_id,
        base_commit_id=synth.repo.head(),
        base_snapshot=synth.repo.snapshot().to_dict(),
        assumed=tuple((c.change_id, c.patch) for c in assumed),
        patch=change.patch,
        step_wall_seconds=0.001,
        traced=traced,
    )


def _assert_request_roundtrips(request):
    clone = pickle.loads(pickle.dumps(request))
    assert clone.build_id == request.build_id
    assert clone.change_id == request.change_id
    assert clone.base_commit_id == request.base_commit_id
    assert clone.base_snapshot == request.base_snapshot
    assert clone.step_wall_seconds == request.step_wall_seconds
    assert clone.traced is request.traced
    # Patch has no __eq__; compare through the journal codec.
    assert encode_patch(clone.patch) == encode_patch(request.patch)
    assert [cid for cid, _ in clone.assumed] == [
        cid for cid, _ in request.assumed
    ]
    for (_, cloned), (_, original) in zip(clone.assumed, request.assumed):
        assert encode_patch(cloned) == encode_patch(original)
    return clone


def test_clean_request_roundtrips(synth):
    change = synth.make_clean_change(target_name=synth.target_names()[0])
    _assert_request_roundtrips(_request(synth, change))


def test_broken_request_roundtrips(synth):
    change = synth.make_broken_change(target_name=synth.target_names()[1])
    _assert_request_roundtrips(_request(synth, change))


def test_stacked_request_roundtrips_and_executes(synth):
    first = synth.make_clean_change(target_name=synth.target_names()[2])
    second = synth.make_clean_change(target_name=synth.target_names()[3])
    request = _request(synth, second, assumed=(first,), traced=True)
    clone = _assert_request_roundtrips(request)
    # The pickled clone must execute identically to the original.
    reset_worker_state()
    original_response = execute_request(request)
    reset_worker_state()
    cloned_response = execute_request(clone)
    assert original_response.steps == cloned_response.steps
    assert original_response.targets == cloned_response.targets


def test_response_roundtrips():
    response = BuildResponse(
        build_id=3,
        change_id="D42",
        targets=("//a:lib",),
        steps=(
            StepRecord(
                target="//a:lib", kind="compile", digest="abc", passed=True
            ),
            StepRecord(
                target="//a:lib",
                kind="test",
                digest="abc",
                passed=False,
                log="boom",
            ),
        ),
        wall_seconds=0.25,
        worker_pid=1234,
    )
    clone = pickle.loads(pickle.dumps(response))
    assert clone == response


def test_speculation_engine_is_picklable():
    from repro.predictor.predictors import StaticPredictor
    from repro.speculation.engine import SpeculationEngine

    engine = SpeculationEngine(
        StaticPredictor(success=0.9, conflict=0.05)
    )
    clone = pickle.loads(pickle.dumps(engine))
    assert clone is not None


def test_submitqueue_strategy_is_picklable():
    """Strategies ride inside configs that workers may someday receive;
    the engine's lambda default used to break this."""
    from repro.predictor.predictors import StaticPredictor
    from repro.strategies.submitqueue import SubmitQueueStrategy

    strategy = SubmitQueueStrategy(
        StaticPredictor(success=0.9, conflict=0.05)
    )
    clone = pickle.loads(pickle.dumps(strategy))
    assert clone is not None
