"""From-scratch references for the identity suites.

The package folds a stack ``H ⊕ S ⊕ C`` onto its memoized base context
and builds the dirty closure.  These references apply the patches one at
a time to a plain dict and load both sides as roots, so ``build_between``
compares every hash in topological order.  Both must agree bit for bit.
"""

from repro.buildsys.executor import BuildContext
from repro.errors import BuildSystemError, PatchConflictError
from repro.planner.controller import FullStackBuildController


def graph_structure(graph):
    """Canonical structural fingerprint of a build graph (section 5.2).

    Content-only changes leave it untouched; adding/removing targets,
    rewiring deps, or moving sources between targets all change it.
    """
    return frozenset(target.definition() for target in graph)


def apply_in_order(snapshot, patches):
    """``patches`` applied to a plain copy of ``snapshot``, each against the
    dict the ones before it produced."""
    merged = dict(snapshot)
    for patch in patches:
        merged = patch.apply(merged).to_dict()
    return merged


def build_affected(executor, base_snapshot, changed_snapshot, stop_on_failure=False):
    """Build the targets whose hash differs between two snapshots, each
    loaded from scratch."""
    return executor.build_between(
        BuildContext.load(base_snapshot),
        BuildContext.load(changed_snapshot),
        stop_on_failure,
    )


class ScratchBuildController(FullStackBuildController):
    """Builds that derive nothing: each applies its stack patch by patch
    onto the base commit's files and loads both sides from scratch.

    The stack is ``HEAD ⊕ (assumed − landed) ⊕ C``: an assumed change
    ``decided`` marks committed is already in the base commit's files."""

    def execute(self, key, changes_by_id, decided=None):
        landed = {cid for cid, committed in (decided or {}).items() if committed}
        stack = [changes_by_id[cid] for cid in sorted(key.assumed - landed)]
        stack.append(changes_by_id[key.change_id])
        base = self._repo.snapshot(self.base_commit_id).to_dict()
        try:
            merged = apply_in_order(base, [change.patch for change in stack])
            report = build_affected(self.executor, base, merged, stop_on_failure=True)
        except PatchConflictError as exc:
            return self._unbuildable(key, f"merge conflict: {exc}")
        except BuildSystemError as exc:
            return self._unbuildable(key, f"build graph error: {exc}")
        return self._execution_from_report(key, report)
