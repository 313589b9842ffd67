"""The union-graph conflict algorithm (paper section 5.2, Steps 1–4).

Building ``δ_{H⊕Ci⊕Cj}`` for every pair needs ~n² build graphs; the union
graph needs only the n+1 graphs ``G_H`` and ``G_{H⊕Ck}``:

1. union the three graphs' nodes — each union node carries the target's
   hash in ``G_H``, ``G_{H⊕Ci}`` and ``G_{H⊕Cj}`` — and union their edges;
2. tag a node *affected by Ci* when its hash differs between ``G_H`` and
   ``G_{H⊕Ci}`` (likewise for Cj);
3. walk the union graph in topological order propagating taint: a node is
   affected by Ci when any of its dependencies is;
4. the changes conflict iff some node ends up affected by both.

Two implementations of the same steps live here:

* :func:`cone_conflict` is the one the analyzer runs.  Taint only ever
  flows from a directly tainted node to its dependents, and Step 4's
  answer is known at the first doubly tainted node, so it starts from the
  two Step-2 taint sets and follows the three graphs' reverse-dependency
  indices outward: no union node, no topological order, and no visit to a
  target outside the two changes' dependent cones.
* :class:`UnionGraph` materializes every node and edge and walks them in
  topological order, as the paper states the steps.  It is the reference
  the tests compare :func:`cone_conflict` against;
  :func:`union_graph_conflict` wraps it for the Figure 5–8 walk-through.

They agree whenever the union is acyclic.  A union of acyclic graphs can
still be cyclic — one change reverses an edge the base has, or the two
changes add opposite edges — and there :class:`UnionGraph` has no
topological order and raises, while the reachability the cone check
computes is still well defined and gives Equation 6's verdict for the
pairs whose combined snapshot loads at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.errors import DependencyCycleError
from repro.types import Path, TargetName


@dataclass
class UnionNode:
    """One union-graph node: a target name and its three observed hashes."""

    name: TargetName
    hash_base: Optional[str] = None
    hash_i: Optional[str] = None
    hash_j: Optional[str] = None
    affected_i: bool = False
    affected_j: bool = False

    def tag_direct(self) -> None:
        """Step 2: direct taint from hash differences against the base."""
        self.affected_i = self.hash_i != self.hash_base
        self.affected_j = self.hash_j != self.hash_base


class UnionGraph:
    """Union of a base build graph and two per-change build graphs."""

    def __init__(
        self,
        base_graph: BuildGraph,
        base_hashes: Mapping[TargetName, str],
        graph_i: BuildGraph,
        hashes_i: Mapping[TargetName, str],
        graph_j: BuildGraph,
        hashes_j: Mapping[TargetName, str],
    ) -> None:
        self.nodes: Dict[TargetName, UnionNode] = {}
        self.deps: Dict[TargetName, Set[TargetName]] = {}
        names = set(base_hashes) | set(hashes_i) | set(hashes_j)
        for name in names:
            self.nodes[name] = UnionNode(
                name,
                hash_base=base_hashes.get(name),
                hash_i=hashes_i.get(name),
                hash_j=hashes_j.get(name),
            )
            self.deps[name] = set()
        for graph in (base_graph, graph_i, graph_j):
            for target in graph:
                self.deps[target.name].update(
                    dep for dep in target.deps if dep in self.nodes
                )

    def _topological_order(self) -> List[TargetName]:
        in_degree = {name: 0 for name in self.nodes}
        dependents: Dict[TargetName, Set[TargetName]] = {n: set() for n in self.nodes}
        for name, deps in self.deps.items():
            in_degree[name] = len(deps)
            for dep in deps:
                dependents[dep].add(name)
        queue = deque(sorted(n for n, deg in in_degree.items() if deg == 0))
        order: List[TargetName] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for dependent in sorted(dependents[name]):
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    queue.append(dependent)
        if len(order) != len(self.nodes):
            remaining = sorted(set(self.nodes) - set(order))
            raise DependencyCycleError(remaining[:8])
        return order

    def propagate(self) -> None:
        """Steps 2–3: direct tagging then taint propagation along deps."""
        for node in self.nodes.values():
            node.tag_direct()
        for name in self._topological_order():
            node = self.nodes[name]
            for dep in self.deps[name]:
                dep_node = self.nodes[dep]
                node.affected_i = node.affected_i or dep_node.affected_i
                node.affected_j = node.affected_j or dep_node.affected_j

    def doubly_affected(self) -> Set[TargetName]:
        """Step 4: targets affected by both changes after propagation."""
        return {
            name
            for name, node in self.nodes.items()
            if node.affected_i and node.affected_j
        }

    def conflicts(self) -> bool:
        return bool(self.doubly_affected())


def cone_conflict(
    base_graph: BuildGraph,
    graph_i: BuildGraph,
    taint_i: AbstractSet[TargetName],
    graph_j: BuildGraph,
    taint_j: AbstractSet[TargetName],
) -> bool:
    """Steps 2–4 over only what the two changes can reach.

    ``taint_k`` is Step 2's direct tagging for change ``k``: every name
    whose hash in ``G_{H⊕Ck}`` differs from its hash in ``G_H``, a missing
    target hashing as ``None`` on either side (so changed, added *and*
    removed targets).  A node is affected by ``Ck`` exactly when some
    directly tainted node reaches it along union-graph dependent edges,
    which makes propagation order-free: a worklist over the union of the
    three graphs' dependents indices reaches the same fixed point a
    topological sweep does, stops at the first node carrying both taints,
    and terminates on a cyclic union because a node re-enters the
    worklist only when its mask grows.
    """
    if not taint_i.isdisjoint(taint_j):
        return True
    masks: Dict[TargetName, int] = dict.fromkeys(taint_i, 1)
    masks.update(dict.fromkeys(taint_j, 2))
    # One graph object often stands in for two of the three (a change
    # that reloaded nothing shares the base's); read its index once.
    indices = [
        graph.direct_dependents
        for graph in {id(g): g for g in (base_graph, graph_i, graph_j)}.values()
    ]
    worklist = list(masks)
    while worklist:
        name = worklist.pop()
        mask = masks[name]
        for dependents_of in indices:
            for dependent in dependents_of(name):
                seen = masks.get(dependent, 0)
                if seen | mask != seen:
                    if seen:
                        return True
                    masks[dependent] = mask
                    worklist.append(dependent)
    return False


def union_graph_conflict(
    base_snapshot: Mapping[Path, str],
    base_graph: BuildGraph,
    snapshot_i: Mapping[Path, str],
    graph_i: BuildGraph,
    snapshot_j: Mapping[Path, str],
    graph_j: BuildGraph,
) -> bool:
    """Convenience wrapper: run Steps 1–4 on three snapshots/graphs."""
    union = UnionGraph(
        base_graph,
        TargetHasher(base_graph, base_snapshot).all_hashes(),
        graph_i,
        TargetHasher(graph_i, snapshot_i).all_hashes(),
        graph_j,
        TargetHasher(graph_j, snapshot_j).all_hashes(),
    )
    union.propagate()
    return union.conflicts()
