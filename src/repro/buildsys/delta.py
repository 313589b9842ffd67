"""Affected-target delta sets and the Equation-6 conflict test.

The paper's delta ``δ_{H⊕C}`` is the set of (target name, target hash)
pairs whose hash after applying change ``C`` differs from the hash at HEAD
(newly added targets count — they have no HEAD hash).  Equation 6 then
declares two changes conflicting exactly when composing both produces some
hash neither produced alone::

    conflict(Ci, Cj)  <=>  δ_{H⊕Ci⊕Cj} != δ_{H⊕Ci} ∪ δ_{H⊕Cj}

The hash side of the pairs is what makes this sharper than comparing
affected *names*: Figure 8's trap — disjoint name sets that still
interact through a new dependency edge — shows up as the same name
carrying a third, previously unseen hash in the combined delta.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Set

from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.loader import load_build_graph
from repro.types import AffectedTarget, Path, TargetName

Delta = FrozenSet[AffectedTarget]


def affected_targets(
    base_snapshot: Mapping[Path, str],
    changed_snapshot: Mapping[Path, str],
    base_graph: Optional[BuildGraph] = None,
    changed_graph: Optional[BuildGraph] = None,
) -> Delta:
    """``δ`` between two snapshots: targets whose hash changed or appeared.

    Pre-loaded graphs can be passed to avoid re-parsing BUILD files when the
    caller (e.g. the conflict analyzer) already has them.
    """
    base_graph = base_graph if base_graph is not None else load_build_graph(base_snapshot)
    changed_graph = (
        changed_graph if changed_graph is not None else load_build_graph(changed_snapshot)
    )
    base_hashes = TargetHasher(base_graph, base_snapshot).all_hashes()
    changed_hashes = TargetHasher(changed_graph, changed_snapshot).all_hashes()
    return frozenset(
        AffectedTarget(name, digest)
        for name, digest in changed_hashes.items()
        if base_hashes.get(name) != digest
    )


def delta_from_dirty(
    base_hashes: Mapping[TargetName, str],
    hashes: Mapping[TargetName, str],
    dirty_closure: Set[TargetName],
) -> Delta:
    """``δ`` when only ``dirty_closure`` targets could have changed.

    Equivalent to diffing the full hash maps — targets outside the closure
    carry their seed hash verbatim, so they can never differ — but costs
    O(closure) instead of O(graph).
    """
    return frozenset(
        AffectedTarget(name, hashes[name])
        for name in dirty_closure
        if name in hashes and base_hashes.get(name) != hashes[name]
    )


def delta_names(delta: Delta) -> Set[TargetName]:
    """Just the target names of a delta (the fast-path comparand)."""
    return {item.name for item in delta}


def deltas_union(*deltas: Delta) -> Delta:
    """The union of any number of delta sets."""
    return frozenset().union(*deltas)


def equation6_conflict(delta_i: Delta, delta_j: Delta, delta_ij: Delta) -> bool:
    """Equation 6: do the changes interact beyond their separate effects?"""
    return delta_ij != deltas_union(delta_i, delta_j)
