"""The service's configuration surface, pinned.

Five ``CoreServiceConfig`` fields, one spec grammar (``process[:N]``),
one build-backend seam, one build path, one journal schema version.  A new option, spec
name, or constructor argument has to change this module.
"""

import dataclasses
import inspect

import pytest

from repro.conflict.analyzer import ConflictAnalyzer
from repro.errors import JournalCorruptError, ParallelExecutionError
from repro.journal import records as rec
from repro.journal.snapshots import decode_config, encode_config
from repro.parallel import BuildRequest, ProcessBuildBackend, create_build_backend
from repro.planner.controller import FullStackBuildController
from repro.planner.planner import PlannerEngine
from repro.service.core import CoreService, CoreServiceConfig
from repro.sim.simulator import Simulation

BUILD_SPECS = (None, "process", "process:2")
#: What the ``init`` record's ``queue_backend`` key held while the
#: service still had a second, sharded conflict sweep to select.
LEGACY_QUEUE_SPECS = (None, "sharded", "sharded:3")


def test_config_has_exactly_five_fields():
    assert {f.name for f in dataclasses.fields(CoreServiceConfig)} == {
        "workers",
        "max_pump_minutes",
        "journal",
        "build_backend",
        "step_wall_seconds",
    }


def test_planner_constructor_arguments():
    assert list(inspect.signature(PlannerEngine.__init__).parameters) == [
        "self", "strategy", "controller", "workers", "conflict_predicate",
        "preemption_grace", "recorder", "conflict_candidates",
    ]


def test_service_constructor_arguments():
    assert list(inspect.signature(CoreService.__init__).parameters) == [
        "self", "repo", "strategy", "config", "controller", "recorder",
        "conflict_predicate",
    ]


def test_analyzer_constructor_arguments():
    # A base context and a recorder: the analyzer loads and hashes nothing
    # itself, so there is no snapshot or graph to hand it.
    assert list(inspect.signature(ConflictAnalyzer.__init__).parameters) == [
        "self", "base", "recorder",
    ]


def test_simulation_constructor_arguments():
    assert list(inspect.signature(Simulation.__init__).parameters) == [
        "self", "strategy", "controller", "workers", "conflict_predicate",
        "max_minutes", "recorder",
    ]


@pytest.mark.parametrize("queue_spec", LEGACY_QUEUE_SPECS)
@pytest.mark.parametrize("build_spec", BUILD_SPECS)
def test_journaled_config_round_trips(build_spec, queue_spec):
    config = CoreServiceConfig(
        workers=5, max_pump_minutes=90.0, build_backend=build_spec
    )
    payload = encode_config(config)
    assert set(payload) == {"workers", "max_pump_minutes"}
    # A journal written before the one conflict sweep decodes to the
    # same config: its queue spec never changed a decision.
    legacy = {**payload, "queue_backend": queue_spec}
    # Where the builds ran is not journaled: every journal replays
    # without a backend.
    assert decode_config(payload).build_backend is None
    assert decode_config(legacy) == decode_config(payload) == dataclasses.replace(
        config, build_backend=None
    )
    assert encode_config(decode_config(legacy)) == payload


@pytest.mark.parametrize(
    "spec", ["auto", "local", "redis-stub:2", "sharded:2", "quantum",
             "process:x", "process:many", "process:0", "process:-1", ""],
)
def test_build_factory_rejects_bad_specs_with_typed_error(spec):
    with pytest.raises(ParallelExecutionError):
        create_build_backend(spec)


def test_v2_journal_is_refused_naming_both_versions():
    head = rec.init_record(0.0, {}, {}, {})
    assert head["v"] == rec.SCHEMA_VERSION == 4
    for old in (2, 3):
        head["v"] = old
        with pytest.raises(JournalCorruptError) as excinfo:
            rec.check_records([head])
        assert f"version {old}" in str(excinfo.value)
        assert "only 4" in str(excinfo.value)


def test_build_controller_constructor_arguments():
    # One build path: no mode switch, and step costs are class constants.
    assert list(
        inspect.signature(FullStackBuildController.__init__).parameters
    ) == ["self", "repo", "cache", "recorder"]


def test_build_seam_signatures():
    assert list(inspect.signature(ProcessBuildBackend.collect).parameters) == [
        "self", "token",
    ]
    assert list(
        inspect.signature(FullStackBuildController.attach_backend).parameters
    ) == ["self", "backend", "step_wall_seconds"]
    assert list(
        inspect.signature(FullStackBuildController.dispatch_batch).parameters
    ) == ["self", "keys", "changes_by_id", "decided"]


def test_build_request_fields():
    assert [f.name for f in dataclasses.fields(BuildRequest)] == [
        "build_id", "change_id", "base_commit_id", "base_snapshot", "assumed",
        "patch", "step_wall_seconds", "traced",
    ]
