"""From-scratch references for the identity suites.

The package folds a stack ``H ⊕ S ⊕ C`` onto its memoized base context
and builds the dirty closure.  These references apply the patches one at
a time to a plain dict and load both sides as roots, so ``build_between``
compares every hash in topological order.  Both must agree bit for bit.

The planner decides from undecided-ancestor counts and a ready memo;
:class:`ScanningPlannerEngine` decides by re-walking every pending
change's ancestor list after every completion.  Both must log the same
decisions in the same order.
"""

from repro.buildsys.executor import BuildContext
from repro.errors import BuildSystemError, PatchConflictError
from repro.planner.controller import FullStackBuildController
from repro.planner.planner import Decision, PlannerEngine
from repro.types import BuildKey


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


class ScanningPlannerEngine(PlannerEngine):
    """The decision step as a full scan: after every completion, walk the
    whole queue in order, derive each change's decisive key from its
    ancestor list, and repeat until a pass decides nothing.  The stall
    guard and strategies reading ``decisive_key`` get the same walk."""

    def decisive_key(self, change_id):
        committed = set()
        for ancestor_id in self.records[change_id].ancestors:
            verdict = self.decided.get(ancestor_id)
            if verdict is None:
                return None  # an ancestor is still pending
            if verdict:
                committed.add(ancestor_id)
        return BuildKey(change_id, frozenset(committed))

    def _scan_usable_build(self, change_id, decisive):
        exact = self.builds.get(decisive)
        if exact is not None and exact.done and not exact.aborted:
            return exact
        ancestor_set = frozenset(self.records[change_id].ancestors)
        for key in self._builds_by_change.get(change_id, ()):
            build = self.builds.get(key)
            if build is None or not build.done or build.aborted:
                continue
            if key.assumed & ancestor_set != decisive.assumed:
                continue
            extras = key.assumed - ancestor_set
            if all(self.decided.get(extra, False) for extra in extras):
                return build
        return None

    def decide_ready(self, now):
        decisions = []
        progressed = True
        while progressed:
            progressed = False
            for change_id in self.conflict_graph.in_order():
                key = self.decisive_key(change_id)
                if key is None:
                    continue
                build = self._scan_usable_build(change_id, key)
                if build is None:
                    continue
                decision = Decision(
                    change_id=change_id,
                    committed=build.execution.success,
                    at=now,
                    reason=build.execution.failure_reason
                    if not build.execution.success
                    else "decisive build passed",
                )
                self._apply_decision(decision)
                decisions.append(decision)
                progressed = True
        return decisions
