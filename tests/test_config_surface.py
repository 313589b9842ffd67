"""The service's configuration surface, pinned.

Five ``CoreServiceConfig`` fields, one spec grammar (``process[:N]``),
one build-backend seam, one build path, one journal schema version.  A new option, spec
name, or constructor argument has to change this module.  A tuning value
that only ever takes one value is a class constant, not an argument.
"""

import dataclasses
import inspect

import pytest

from repro.changes import truth
from repro.changes.change import Change, Developer, GroundTruth
from repro.changes.state import ChangeRecord
from repro.conflict.analyzer import ConflictAnalyzer
from repro.errors import JournalCorruptError, ParallelExecutionError
from repro.journal import records as rec
from repro.journal.snapshots import decode_config, encode_config
from repro.parallel import BuildRequest, ProcessBuildBackend, create_build_backend
from repro.obs.registry import Gauge, MetricsRegistry
from repro.planner.controller import FullStackBuildController, LabelBuildController
from repro.planner.planner import PlannerEngine
from repro.predictor.logistic import LogisticRegression
from repro.predictor.predictors import LearnedPredictor, StaticPredictor
from repro.predictor.training import recursive_feature_elimination, train_models
from repro.service.core import CoreService, CoreServiceConfig
from repro.sim.simulator import Simulation
from repro.speculation import engine as speculation_engine
from repro.speculation.engine import SpeculationEngine
from repro.speculation.tree import SpeculationNode, SubsetEnumerator
from repro.strategies.independent_batch import IndependentBatchStrategy
from repro.strategies.oracle import OracleStrategy
from repro.strategies.reordering import ReorderingSubmitQueueStrategy
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy

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
    signature = inspect.signature(PlannerEngine.__init__)
    assert list(signature.parameters) == [
        "self", "strategy", "controller", "workers", "conflict_predicate",
        "preemption_grace", "recorder", "conflict_candidates",
    ]
    # The fleet is a count, as CoreServiceConfig.workers passes it.
    assert signature.parameters["workers"].annotation in (int, "int")


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


def parameters(function):
    return list(inspect.signature(function).parameters)


def test_simulation_constructor_arguments():
    # The pump guard is Simulation.MAX_MINUTES.
    assert parameters(Simulation.__init__) == [
        "self", "strategy", "controller", "workers", "conflict_predicate",
        "recorder",
    ]


#: Every build's benefit is 1 and each tuning value these took has one
#: value in use, so none is an argument.
SIGNATURES = [
    (SpeculationEngine.__init__, ["self", "predictor"]),
    (SubsetEnumerator.__init__, [
        "self", "change_id", "pending_ancestors", "commit_probabilities",
        "known_committed",
    ]),
    (SubmitQueueStrategy.__init__, ["self", "predictor"]),
    (OracleStrategy.__init__, ["self"]),
    # The batching knobs stay: they are journaled in the init record, and
    # batch_size/min_joint_success take two values in the benchmarks.
    (RiskBatchStrategy.__init__, [
        "self", "predictor", "batch_size", "member_confidence",
        "max_pair_conflict", "min_joint_success",
    ]),
    (ReorderingSubmitQueueStrategy.__init__, ["self", "predictor"]),
    (IndependentBatchStrategy.__init__, ["self", "predictor"]),
    (LabelBuildController.__init__, ["self", "step_elimination"]),
    (LearnedPredictor.__init__, [
        "self", "success_model", "conflict_model", "extractor",
    ]),
    (MetricsRegistry.__init__, ["self"]),
    (LogisticRegression.__init__, ["self"]),
    (train_models, ["history", "train_fraction", "seed"]),
    (recursive_feature_elimination, ["X", "y", "feature_names", "keep"]),
]


@pytest.mark.parametrize(
    "function, expected", SIGNATURES,
    ids=[function.__qualname__ for function, _ in SIGNATURES],
)
def test_single_valued_options_are_not_arguments(function, expected):
    assert parameters(function) == expected


@pytest.mark.parametrize("owner, name, value", [
    (SpeculationEngine, "MIN_VALUE", 1e-9),
    (ReorderingSubmitQueueStrategy, "DOOMED_BELOW", 0.3),
    (ReorderingSubmitQueueStrategy, "HEALTHY_ABOVE", 0.85),
    (ReorderingSubmitQueueStrategy, "MAX_JUMPS", 3),
    (IndependentBatchStrategy, "BATCH_SIZE", 4),
    (IndependentBatchStrategy, "CONFIDENCE", 0.9),
    (LabelBuildController, "STACKING_OVERHEAD", 0.35),
    (LabelBuildController, "DEFAULT_DURATION", 30.0),
    (LearnedPredictor, "CACHE_CAPACITY", 1 << 16),
    (truth, "REAL_CONFLICT_CACHE_CAPACITY", 1 << 16),
    (MetricsRegistry, "MAX_SERIES_PER_METRIC", 1000),
    (Simulation, "MAX_MINUTES", 60.0 * 24 * 365),
    (LogisticRegression, "L2", 1e-3),
    (LogisticRegression, "LEARNING_RATE", 1.0),
    (LogisticRegression, "MAX_ITER", 500),
    (LogisticRegression, "TOL", 1e-7),
], ids=lambda value: value if isinstance(value, str) else None)
def test_each_bound_is_a_constant_holding_its_value(owner, name, value):
    assert getattr(owner, name) == value


def test_one_value_per_build():
    # V = B * P_needed with B = 1: a build carries its value alone, and
    # selection returns the merge's nodes themselves.
    assert [f.name for f in dataclasses.fields(SpeculationNode)] == [
        "key", "value",
    ]
    change = Change(
        change_id="c1",
        revision_id="R1",
        developer=Developer("dev1"),
        ground_truth=GroundTruth(
            individually_ok=True, target_names=frozenset({"//a"})
        ),
    )
    selected = SpeculationEngine(StaticPredictor()).select_builds(
        pending=[change],
        records={"c1": ChangeRecord(change=change, ancestors=[])},
        decided={},
        budget=1,
    )
    assert [type(node) for node in selected] == [SpeculationNode]
    assert not hasattr(speculation_engine, "BenefitFunction")
    assert not hasattr(speculation_engine, "unit_benefit")
    assert not hasattr(Gauge, "dec")


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
    assert head["v"] == rec.SCHEMA_VERSION == 5
    for old in (2, 3, 4):
        head["v"] = old
        with pytest.raises(JournalCorruptError) as excinfo:
            rec.check_records([head])
        assert f"version {old}" in str(excinfo.value)
        assert "only 5" in str(excinfo.value)


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
