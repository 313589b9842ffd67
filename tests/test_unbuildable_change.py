"""A change whose BUILD files do not load is rejected, not fatal.

A syntax error, an unknown dep or a dependency cycle — in the change
alone, behind another pending change, or formed only once the change is
stacked on a speculated ancestor — used to raise out of ``submit`` or
``pump`` after the submit record was journaled, so the service died and
its journal never recovered.  Each is an ordinary failed build with the
reason ``build graph error: <message>``, wherever the build ran.
"""

import pytest

from repro.changes.change import Change, Developer
from repro.journal import JournalWriter, fingerprint_digest, recover
from repro.journal.sink import events_path
from repro.planner.controller import FullStackBuildController
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.types import BuildKey
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository

from .oracles import ScratchBuildController

_DEV = Developer(developer_id="dev000", name="engineer-0")


def _build(name, deps=()):
    return f"target(name={name!r}, srcs=['{name}.py'], deps={list(deps)!r})\n"


#: ``a`` depends on ``b``; ``c``, ``d`` and ``e`` stand alone.
BASE = {
    "a/BUILD": _build("a", ["//b:b"]),
    "b/BUILD": _build("b"),
    "c/BUILD": _build("c"),
    "d/BUILD": _build("d"),
    "e/BUILD": _build("e"),
    **{f"{name}/{name}.py": name.upper() + "\n" for name in "abcde"},
}

#: shape -> (files the offender rewrites, text its rejection must carry).
SHAPES = {
    "syntax error": (
        {"e/BUILD": "target(name='e', srcs=["},
        "e/BUILD: syntax error",
    ),
    "unknown dep": (
        {"e/BUILD": _build("e", ["//nope:nope"])},
        "//e:e depends on unknown target //nope:nope",
    ),
    "self-cycle": (
        {"e/BUILD": _build("e", ["//e:e"])},
        "//e:e cannot depend on itself",
    ),
    "two-target cycle": (
        {"c/BUILD": _build("c", ["//d:d"]), "d/BUILD": _build("d", ["//c:c"])},
        "dependency cycle: //c:c -> //d:d",
    ),
}


def _rewrite(change_id, files):
    base = {path: BASE[path] for path in files}
    return Change(change_id, f"R-{change_id}", _DEV, patch=Patch.modifying(files, base))


def _service(build_backend=None, journal=None):
    repo = Repository(dict(BASE))
    core = CoreService(
        repo,
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(
            workers=4, build_backend=build_backend, journal=journal
        ),
    )
    return repo, core


def _land(core, changes):
    for change in changes:
        core.submit(change)
    decisions = {d.change_id: d for d in core.pump()}
    assert decisions.keys() == {change.change_id for change in changes}
    return decisions


@pytest.mark.parametrize("behind_a_clean_change", [False, True])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_unloadable_change_is_rejected_for_that_reason(shape, behind_a_clean_change):
    files, message = SHAPES[shape]
    repo, core = _service()
    changes = [_rewrite("BAD", files)]
    if behind_a_clean_change:
        changes.insert(0, _rewrite("CLEAN", {"b/b.py": "B2\n"}))
    decisions = _land(core, changes)
    assert not decisions["BAD"].committed
    assert decisions["BAD"].reason.startswith("build graph error: ")
    assert message in decisions["BAD"].reason
    assert repo.is_green()
    if behind_a_clean_change:
        assert decisions["CLEAN"].committed
        assert repo.snapshot()["b/b.py"] == "B2\n"
    assert repo.snapshot()["e/BUILD"] == BASE["e/BUILD"]
    core.close()


def test_opposite_edges_pair_lands_the_first_and_rejects_the_second(tmp_path):
    """``c -> d`` then ``d -> c``: each loads alone, the stack is a cycle.
    The pair conflicts, the second's build on top of the first reports the
    cycle, and the journal — which holds both submits — recovers."""
    repo, core = _service(journal=JournalWriter(str(tmp_path)))
    decisions = _land(
        core,
        [
            _rewrite("FWD", {"c/BUILD": _build("c", ["//d:d"])}),
            _rewrite("BACK", {"d/BUILD": _build("d", ["//c:c"])}),
        ],
    )
    assert decisions["FWD"].committed
    assert not decisions["BACK"].committed
    assert decisions["BACK"].reason == (
        "build graph error: dependency cycle: //c:c -> //d:d"
    )
    assert repo.is_green()
    live = fingerprint_digest(core)
    core.close()
    report = recover(str(tmp_path), attach=False)
    assert fingerprint_digest(report.service) == live


def test_dependency_reversal_and_an_unrelated_change_both_land():
    """Base ∪ change is cyclic (``a -> b`` became ``b -> a``); that is no
    conflict with a change that reaches neither target."""
    repo, core = _service()
    core.submit(
        _rewrite("REV", {"a/BUILD": _build("a"), "b/BUILD": _build("b", ["//a:a"])})
    )
    core.submit(_rewrite("OTHER", {"e/e.py": "E2\n"}))
    assert core.analyzer.stats.slow_path == 1
    assert core.planner.conflict_graph.edge_count() == 0
    decisions = {d.change_id: d for d in core.pump()}
    assert decisions["REV"].committed and decisions["OTHER"].committed
    assert repo.is_green()
    core.close()


def _journaled_run(tmp_path, build_backend):
    """Every shape at once; returns (decisions, journal bytes)."""
    journal_dir = str(tmp_path / (build_backend or "inline").replace(":", "_"))
    writer = JournalWriter(journal_dir)
    _, core = _service(build_backend=build_backend, journal=writer)
    decisions = _land(
        core,
        [
            _rewrite("CLEAN", {"b/b.py": "B2\n"}),
            _rewrite("BAD", SHAPES["unknown dep"][0]),
            _rewrite("FWD", {"c/BUILD": _build("c", ["//d:d"])}),
            _rewrite("BACK", {"d/BUILD": _build("d", ["//c:c"])}),
        ],
    )
    core.close()
    writer.close()
    with open(events_path(journal_dir), "rb") as handle:
        return (
            {cid: (d.committed, d.reason, d.at) for cid, d in decisions.items()},
            handle.read(),
        )


@pytest.mark.parametrize("build_backend", ["process:2"])
def test_backends_reject_with_the_same_words_and_the_same_journal(
    tmp_path, build_backend
):
    inline_decisions, inline_journal = _journaled_run(tmp_path, None)
    assert [cid for cid, d in inline_decisions.items() if not d[0]] == ["BAD", "BACK"]
    decisions, journal = _journaled_run(tmp_path, build_backend)
    assert decisions == inline_decisions
    assert journal == inline_journal


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_from_scratch_controller_reports_the_same_reason(shape):
    files, _ = SHAPES[shape]
    change = _rewrite("BAD", files)
    key = BuildKey("BAD", frozenset())
    reasons = {
        controller(Repository(dict(BASE))).execute(key, {"BAD": change}).failure_reason
        for controller in (FullStackBuildController, ScratchBuildController)
    }
    assert len(reasons) == 1
    assert reasons.pop().startswith("build graph error: ")
