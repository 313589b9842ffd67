"""Shared fixtures: a tiny repository with BUILD files, and a synthetic
monorepo/workload pair for the heavier integration tests."""

from __future__ import annotations

import pytest

from repro.service.core import CoreService
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: A three-target repo: app -> lib -> base, one extra independent tool.
TINY_FILES = {
    "base/BUILD": (
        "target(name = 'base', srcs = ['base.py'], deps = [])\n"
    ),
    "base/base.py": "BASE = 1\n",
    "lib/BUILD": (
        "target(name = 'lib', srcs = ['lib.py'], deps = ['//base:base'])\n"
    ),
    "lib/lib.py": "LIB = 2\n",
    "app/BUILD": (
        "target(name = 'app', srcs = ['app.py'], deps = ['//lib:lib'],"
        " steps = ['compile', 'unit_test', 'ui_test'])\n"
    ),
    "app/app.py": "APP = 3\n",
    "tool/BUILD": (
        "target(name = 'tool', srcs = ['tool.py'], deps = [])\n"
    ),
    "tool/tool.py": "TOOL = 4\n",
}


@pytest.fixture
def tiny_repo() -> Repository:
    return Repository(dict(TINY_FILES))


@pytest.fixture
def tiny_snapshot(tiny_repo):
    return tiny_repo.snapshot().to_dict()


@pytest.fixture
def monorepo() -> SyntheticMonorepo:
    return SyntheticMonorepo(MonorepoSpec(layers=(3, 4, 5), fan_in=2), seed=42)


def plan_and_resolve(planner, now):
    """One planner epoch the way every driver runs it: plan, then resolve.

    Returns the ``Epoch``; afterwards each started build's execution is on
    ``planner.builds[key].execution`` and ``complete()`` may fire.
    """
    epoch = planner.plan(now)
    planner.resolve_pending()
    return epoch


def start_builds(planner, keys, now):
    """Dispatch ``keys`` as one epoch outside ``plan()`` — no selection,
    no aborts — and resolve it, so ``complete()`` may fire for each."""
    planner._unresolved.append(planner._start_batch(keys, now))
    planner.resolve_pending()


def full_sweep_service(repo, strategy, **kwargs):
    """A ``CoreService`` that checks every submission against every
    pending change: handed its own analyzer's verdict as
    ``conflict_predicate``, it is given no candidate index to narrow the
    sweep with.  The reference the indexed service must match."""
    service = CoreService(
        repo,
        strategy,
        conflict_predicate=lambda a, b: service._conflict_predicate(a, b),
        **kwargs,
    )
    return service
