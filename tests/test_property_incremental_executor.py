"""Property test: incremental execution is bit-identical to from-scratch.

A :class:`FullStackBuildController` and the from-scratch
``oracles.ScratchBuildController`` are driven over mirrored repositories with the
same random interleaving of speculative builds (random assumed subsets)
and mainline commits.  Every build must agree on outcome, step counts,
duration, failure reason, and the exact target order; every commit must
leave both mainlines with identical snapshots.  The patch pool mixes
clean edits, failing-step directives, conflict-token pairs, structural
BUILD rewrites, new packages, a delete, and a follow-up edit, so merge
conflicts, dirty-closure rehashing, graph reloads, and base advancement
are all exercised — and so are keys that still assume a change that has
landed since, which both controllers must leave out of the stack.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer
from repro.planner.controller import FullStackBuildController
from repro.types import BuildKey
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository

from .conftest import TINY_FILES
from .oracles import ScratchBuildController

DEV = Developer("prop-dev")

_SOURCES = ("base/base.py", "lib/lib.py", "app/app.py", "tool/tool.py")
_SUFFIXES = (
    "# tweak\n",
    "# FAIL:unit_test\n",
    "# CONFLICT:tok1\n",
    "# CONFLICT:tok2\n",
)


def _candidate_patches(base):
    """A fixed pool of patches over the tiny repo: content, structural, a
    delete, and a follow-up edit authored on another patch's post-image."""
    pool = []
    for path in _SOURCES:
        for suffix in _SUFFIXES:
            pool.append(
                Patch.modifying({path: base[path] + suffix}, base=base)
            )
    # Follow-up: lib's first edit, edited again on top of its post-image.
    tweaked = base["lib/lib.py"] + _SUFFIXES[0]
    pool.append(
        Patch.modifying(
            {"lib/lib.py": tweaked + "# follow-up\n"},
            base={"lib/lib.py": tweaked},
        )
    )
    # Delete: tool loses its only source (its BUILD still lists it).
    pool.append(Patch.deleting(["tool/tool.py"]))
    # Structural: the tool package gains a second source file.
    pool.append(
        Patch(
            [
                *Patch.modifying(
                    {
                        "tool/BUILD": (
                            "target(name = 'tool', srcs = ['tool.py',"
                            " 'extra.py'], deps = [])\n"
                        )
                    },
                    base=base,
                ),
                *Patch.adding({"tool/extra.py": "EXTRA = 5\n"}),
            ]
        )
    )
    # Structural: a whole new package appears.
    pool.append(
        Patch.adding(
            {
                "newpkg/BUILD": (
                    "target(name = 'new', srcs = ['new.py'],"
                    " deps = ['//base:base'])\n"
                ),
                "newpkg/new.py": "NEW = 1\n",
            }
        )
    )
    # Structural: app's declared steps change.
    pool.append(
        Patch.modifying(
            {
                "app/BUILD": (
                    "target(name = 'app', srcs = ['app.py'],"
                    " deps = ['//lib:lib'], steps = ['compile',"
                    " 'unit_test'])\n"
                )
            },
            base=base,
        )
    )
    return pool


def _op_strategy(ids):
    build = st.tuples(
        st.just("build"),
        st.sampled_from(ids),
        st.lists(st.sampled_from(ids), max_size=3, unique=True),
    )
    commit = st.tuples(st.just("commit"), st.sampled_from(ids), st.just([]))
    return st.one_of(build, build, commit)  # builds twice as likely


def _assert_same_execution(warm, cold):
    assert warm.success == cold.success
    assert warm.steps_executed == cold.steps_executed
    assert warm.steps_cached == cold.steps_cached
    assert warm.duration == cold.duration
    assert warm.failure_reason == cold.failure_reason
    assert warm.targets_built == cold.targets_built


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_incremental_execution_bit_identical(data):
    base = dict(TINY_FILES)
    pool = _candidate_patches(base)
    count = data.draw(st.integers(min_value=2, max_value=6), label="changes")
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=count,
            max_size=count,
        ),
        label="patch picks",
    )
    changes = {
        f"c{i}": Change(
            change_id=f"c{i}",
            revision_id="R1",
            developer=DEV,
            patch=pool[pick],
        )
        for i, pick in enumerate(picks)
    }
    ids = sorted(changes)
    ops = data.draw(
        st.lists(_op_strategy(ids), min_size=1, max_size=12), label="ops"
    )

    repo_warm = Repository(dict(base))
    repo_cold = Repository(dict(base))
    warm = FullStackBuildController(repo_warm)
    cold = ScratchBuildController(repo_cold)
    committed = set()

    for kind, change_id, assumed in ops:
        if kind == "build":
            key = BuildKey(
                change_id,
                frozenset(a for a in assumed if a != change_id),
            )
            decided = {cid: True for cid in committed}
            _assert_same_execution(
                warm.execute(key, changes, decided),
                cold.execute(key, changes, decided),
            )
        else:
            if change_id in committed:
                continue
            change = changes[change_id]
            outcomes = []
            for controller in (warm, cold):
                try:
                    controller.on_commit(change, changes)
                    outcomes.append(True)
                except Exception:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1]
            if outcomes[0]:
                committed.add(change_id)
            assert (
                repo_warm.snapshot().to_dict() == repo_cold.snapshot().to_dict()
            )


def test_deep_speculation_chain_bit_identical(monorepo):
    """A depth-10 assumed chain agrees with from-scratch at every prefix."""
    repo_files = monorepo.repo.snapshot().to_dict()
    warm = FullStackBuildController(Repository(dict(repo_files)))
    cold = ScratchBuildController(Repository(dict(repo_files)))
    chain = [monorepo.make_clean_change() for _ in range(10)]
    changes = {change.change_id: change for change in chain}
    for depth in range(len(chain)):
        key = BuildKey(
            chain[depth].change_id,
            frozenset(change.change_id for change in chain[:depth]),
        )
        _assert_same_execution(
            warm.execute(key, changes), cold.execute(key, changes)
        )
    # One base load serves the whole chain; no merged state is carried
    # from one build to the next (conflicting stacks derive nothing).
    assert warm.stats.base_context_loads == 1
    assert warm.stats.prefix_hits == 0
    assert 0 < warm.stats.prefix_misses <= len(chain)
