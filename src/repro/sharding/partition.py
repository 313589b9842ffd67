"""The target-graph partitioner: deterministic components, bounded bins.

The production SubmitQueue shards planning by Helix partition (section
7.1); the reproduction's equivalent of a Helix partition is a *connected
component* of the build-target graph under undirected dependency edges —
two targets in different components can never share an affected closure,
so changes confined to different components can never conflict (the
soundness argument lives in ``repro.sharding.analyzer``).

A monorepo can have more components than we want shards, so components
are packed into at most ``max_partitions`` bins with a deterministic
longest-processing-time heuristic (largest component first, least-loaded
bin, ties by lowest bin index) — the "min-cut/merge" cap: components are
never split, only merged into shared bins.

The partitioner is maintained *incrementally* across structural head
advances via the same dirty-set idea the analyzer uses: diff the old and
new target definitions, take the undirected closure of the changed
region, and re-cluster only the components that closure touches.
Everything outside keeps its component and bin assignment, so a
structural commit in one island never moves the others' shards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.errors import ShardingError
from repro.types import Path, TargetName


@dataclass
class PartitionerStats:
    """How much re-clustering work incremental refreshes actually did."""

    full_builds: int = 0
    refreshes: int = 0
    components_reused: int = 0
    components_recomputed: int = 0


@dataclass(frozen=True)
class _Component:
    """One connected component: its members and the bin it lives in."""

    members: FrozenSet[TargetName]
    bin: int


def _undirected_adjacency(graph: BuildGraph) -> Dict[TargetName, Set[TargetName]]:
    """Dependency edges with direction erased (deps + dependents)."""
    adjacency: Dict[TargetName, Set[TargetName]] = {
        name: set() for name in graph.names()
    }
    for target in graph:
        for dep in target.deps:
            if dep in graph:
                adjacency[target.name].add(dep)
                adjacency[dep].add(target.name)
    return adjacency


def _closure(
    seeds: Iterable[TargetName], adjacency: Dict[TargetName, Set[TargetName]]
) -> Set[TargetName]:
    """Undirected reachability from ``seeds`` (members included)."""
    seen: Set[TargetName] = set()
    frontier: deque = deque()
    for seed in seeds:
        if seed in adjacency and seed not in seen:
            seen.add(seed)
            frontier.append(seed)
    while frontier:
        current = frontier.popleft()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def _cluster(
    names: Iterable[TargetName],
    adjacency: Dict[TargetName, Set[TargetName]],
) -> List[FrozenSet[TargetName]]:
    """Connected components restricted to ``names``, deterministically.

    Components are discovered from sorted roots and returned largest
    first (ties by smallest member name) — the LPT packing order.
    """
    member = set(names)
    seen: Set[TargetName] = set()
    components: List[FrozenSet[TargetName]] = []
    for root in sorted(member):
        if root in seen:
            continue
        component: Set[TargetName] = set()
        stack = [root]
        seen.add(root)
        while stack:
            current = stack.pop()
            component.add(current)
            for neighbor in adjacency.get(current, ()):
                if neighbor in member and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(frozenset(component))
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


class TargetPartitioner:
    """Connected components of a build graph, packed into bounded bins."""

    def __init__(self, graph: BuildGraph, max_partitions: int = 4) -> None:
        if max_partitions < 1:
            raise ShardingError("max_partitions must be >= 1")
        self.max_partitions = max_partitions
        self.stats = PartitionerStats()
        #: Bumped whenever any target's bin assignment may have changed;
        #: routing caches key their validity off this.
        self.version = 0
        self._rebuild(graph)

    # -- construction ---------------------------------------------------------

    def _rebuild(self, graph: BuildGraph) -> None:
        """Full build: cluster every target, pack bins from scratch."""
        self.stats.full_builds += 1
        self._graph = graph
        self._definitions = {
            target.name: target.definition() for target in graph
        }
        adjacency = _undirected_adjacency(graph)
        self._components: List[_Component] = []
        self._component_of: Dict[TargetName, int] = {}
        bin_sizes = [0] * self.max_partitions
        for members in _cluster(graph.names(), adjacency):
            bin_index = min(
                range(self.max_partitions), key=lambda i: (bin_sizes[i], i)
            )
            bin_sizes[bin_index] += len(members)
            component_index = len(self._components)
            self._components.append(_Component(members, bin_index))
            for name in members:
                self._component_of[name] = component_index
        self._bin_sizes = bin_sizes

    def rebuild(self, graph: BuildGraph) -> None:
        """Repartition from scratch (the ``advance_base(None)`` fallback)."""
        self._rebuild(graph)
        self.version += 1

    # -- incremental refresh --------------------------------------------------

    def refresh(self, graph: BuildGraph) -> int:
        """Advance to a new graph, re-clustering only the changed region.

        Returns the number of components recomputed (0 when the diff is
        empty — the graph object changed but no target definition did).
        Preserved components provably keep their membership: any change
        to a component's member set requires an edge incident to a target
        whose definition changed, and the undirected closure of those
        targets is entirely inside the recomputed region.
        """
        self.stats.refreshes += 1
        old_definitions = self._definitions
        new_definitions = {
            target.name: target.definition() for target in graph
        }
        added = new_definitions.keys() - old_definitions.keys()
        removed = old_definitions.keys() - new_definitions.keys()
        changed = {
            name
            for name in new_definitions.keys() & old_definitions.keys()
            if new_definitions[name] != old_definitions[name]
        }
        if not added and not removed and not changed:
            # Structurally identical graph (e.g. an analyzer rebuild over
            # the same tree): swap the reference, keep every assignment.
            self._graph = graph
            self._definitions = new_definitions
            self.stats.components_reused += len(self._components)
            return 0

        adjacency = _undirected_adjacency(graph)
        # Old neighbors of removed targets that still exist must re-cluster
        # too: losing the removed target may have split their component.
        seeds: Set[TargetName] = set(added) | changed
        for name in removed:
            component_index = self._component_of.get(name)
            if component_index is not None:
                seeds.update(
                    member
                    for member in self._components[component_index].members
                    if member in new_definitions
                )
        affected = _closure(seeds, adjacency)

        discarded: Set[int] = set()
        for name in affected | removed:
            component_index = self._component_of.get(name)
            if component_index is not None:
                discarded.add(component_index)
        preserved = [
            component
            for index, component in enumerate(self._components)
            if index not in discarded
        ]
        preserved_members: Set[TargetName] = set()
        for component in preserved:
            preserved_members.update(component.members)
        recluster = set(new_definitions) - preserved_members

        bin_sizes = [0] * self.max_partitions
        for component in preserved:
            bin_sizes[component.bin] += len(component.members)
        components = list(preserved)
        recomputed = 0
        for members in _cluster(recluster, adjacency):
            bin_index = min(
                range(self.max_partitions), key=lambda i: (bin_sizes[i], i)
            )
            bin_sizes[bin_index] += len(members)
            components.append(_Component(members, bin_index))
            recomputed += 1

        self._graph = graph
        self._definitions = new_definitions
        self._components = components
        self._component_of = {
            name: index
            for index, component in enumerate(components)
            for name in component.members
        }
        self._bin_sizes = bin_sizes
        self.stats.components_reused += len(preserved)
        self.stats.components_recomputed += recomputed
        self.version += 1
        return recomputed

    # -- routing queries ------------------------------------------------------

    @property
    def graph(self) -> BuildGraph:
        return self._graph

    @property
    def shard_count(self) -> int:
        return self.max_partitions

    def component_count(self) -> int:
        return len(self._components)

    def shard_of_target(self, name: TargetName) -> int:
        """The bin owning ``name`` (raises for targets not in the graph)."""
        try:
            return self._components[self._component_of[name]].bin
        except KeyError:
            raise ShardingError(f"target {name} is not in the partitioned graph")

    def shards_of_path(self, path: Path) -> FrozenSet[int]:
        """Bins of the targets owning ``path`` (empty when unowned).

        A path may be listed by targets in different components (and so
        different bins); the router treats multi-bin paths as straddlers.
        """
        return frozenset(
            self.shard_of_target(name)
            for name in self._graph.targets_owning(path)
        )

    def bin_target_counts(self) -> List[int]:
        """Targets per bin, indexed by bin (for imbalance gauges)."""
        return list(self._bin_sizes)
