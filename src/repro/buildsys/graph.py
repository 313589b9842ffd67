"""The build-target DAG: lookup, validation, and dep/rdep traversal.

The graph is the substrate for Algorithm-1 hashing (deps-first order), the
affected-target closure (reverse deps), and the section-5.2 structure
comparison that gates the conflict analyzer's fast path.  All traversals
are deterministic: ties are broken by sorted target name, so hashes,
orders, and reports are reproducible across runs.

Hashing walks :meth:`BuildGraph.depth_index`, a build
:meth:`BuildGraph.topo_index`; both are computed at first use.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.buildsys.target import Target
from repro.errors import DependencyCycleError, UnknownTargetError
from repro.types import Path, TargetName

_EMPTY: AbstractSet[TargetName] = frozenset()


class BuildGraph:
    """A collection of :class:`Target` nodes with dependency edges."""

    def __init__(self, targets: Iterable[Target] = ()) -> None:
        self._targets: Dict[TargetName, Target] = {}
        self._dependents: Dict[TargetName, Set[TargetName]] = {}
        self._owners: Dict[Path, Set[TargetName]] = {}
        self._packages: Dict[str, List[TargetName]] = {}
        self._depth: Optional[Dict[TargetName, int]] = None
        self._topo: Optional[Dict[TargetName, int]] = None
        #: ``(weak base, changed, gone)`` when :meth:`splice` made this graph.
        self._spliced: Optional[Tuple[weakref.ref, AbstractSet, AbstractSet]] = None
        for target in targets:
            self.add_target(target)

    # -- construction and lookup ------------------------------------------

    def add_target(self, target: Target) -> None:
        """Add one target; duplicate names are an error.  (A graph
        :meth:`splice` made may hold frozen index sets: never extend it.)"""
        if target.name in self._targets:
            raise ValueError(f"duplicate target {target.name}")
        self._targets[target.name] = target
        self._packages.setdefault(target.package, []).append(target.name)
        self._dependents.setdefault(target.name, set())
        for dep in target.deps:
            self._dependents.setdefault(dep, set()).add(target.name)
        for src in target.srcs:
            self._owners.setdefault(src, set()).add(target.name)
        self._depth = self._topo = None

    def splice(
        self, declarations: Iterable[Tuple[str, Sequence[Target]]]
    ) -> "BuildGraph":
        """This graph with each ``(package, targets)`` redeclared in turn
        (an empty list deletes the package), validated.

        It costs the packages' old and new targets and the dependent cone
        of the changed ones, never a pass over the graph: the new graph
        starts from shallow copies of this one's indices and replaces an
        index set instead of changing it.  A target redeclared with the same
        definition keeps this graph's object.  Iteration order is the one
        re-adding the packages after the rest gives, so :meth:`validate`
        names the same dangling dependency.  Raises ``ValueError`` for a
        duplicate name, :class:`UnknownTargetError` for a dangling
        dependency and :class:`DependencyCycleError` for a cycle.
        """
        depth = dict(self.depth_index())
        graph = BuildGraph()
        targets = graph._targets = dict(self._targets)
        dependents = graph._dependents = dict(self._dependents)
        owners = graph._owners = dict(self._owners)
        packages = graph._packages = dict(self._packages)
        removed: Set[TargetName] = set()
        changed: Set[TargetName] = set()
        for package, declared in declarations:
            for name in packages.pop(package, ()):
                old = targets.pop(name)
                removed.add(name)
                for dep in old.deps:
                    dependents[dep] = dependents[dep] - {name}
                for src in old.srcs:
                    owners[src] = owners[src] - {name}
            names = []
            for target in declared:
                name = target.name
                if name in targets:
                    raise ValueError(f"duplicate target {name}")
                old = self._targets.get(name)
                if old is not None and old.definition() == target.definition():
                    target = old
                else:
                    changed.add(name)
                targets[name] = target
                names.append(name)
                dependents.setdefault(name, _EMPTY)
                for dep in target.deps:
                    dependents[dep] = dependents.get(dep, _EMPTY) | {name}
                for src in target.srcs:
                    owners[src] = owners.get(src, _EMPTY) | {name}
            if names:
                packages[package] = names

        gone = frozenset(removed.difference(targets))
        if any(dependents.get(name) for name in gone) or any(
            dep not in targets for name in changed for dep in targets[name].deps
        ):
            graph.validate()  # raises, naming the first dangling dependency
        for name in gone:
            dependents.pop(name, None)
            del depth[name]
        graph._depth = depth
        graph._settle_depths(graph.transitive_dependents(changed), depth)
        graph._spliced = (weakref.ref(self), frozenset(changed), gone)
        return graph

    def target(self, name: TargetName) -> Target:
        try:
            return self._targets[name]
        except KeyError:
            raise UnknownTargetError(name) from None

    @property
    def by_name(self) -> Mapping[TargetName, Target]:
        """The name-to-target index itself (read it, do not change it)."""
        return self._targets

    def __len__(self) -> int:
        return len(self._targets)

    def __iter__(self) -> Iterator[Target]:
        return iter(self._targets.values())

    def __contains__(self, name: object) -> bool:
        return name in self._targets

    def validate(self) -> "BuildGraph":
        """Check every dependency resolves to a target in the graph."""
        for target in self:
            for dep in target.deps:
                if dep not in self._targets:
                    raise UnknownTargetError(
                        f"{target.name} depends on unknown target {dep}"
                    )
        return self

    # -- traversal ---------------------------------------------------------

    def topological_order(self) -> List[TargetName]:
        """Target names, dependencies first; deterministic (name-sorted ties).

        Raises :class:`DependencyCycleError` when the graph has a cycle.
        Dependencies on targets absent from the graph are ignored here —
        :meth:`validate` is the place that rejects them.
        """
        in_degree: Dict[TargetName, int] = {}
        for name, target in self._targets.items():
            in_degree[name] = sum(1 for dep in target.deps if dep in self._targets)
        queue = deque(sorted(n for n, degree in in_degree.items() if degree == 0))
        order: List[TargetName] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for dependent in sorted(self._dependents.get(name, ())):
                if dependent not in in_degree:
                    continue
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    queue.append(dependent)
        if len(order) != len(self._targets):
            cycle = sorted(set(self._targets) - set(order))
            raise DependencyCycleError(cycle)
        return order

    def transitive_deps(self, name: TargetName) -> Set[TargetName]:
        """Every target reachable through deps, excluding ``name`` itself."""
        self.target(name)
        seen: Set[TargetName] = set()
        frontier = deque([name])
        while frontier:
            current = frontier.popleft()
            target = self._targets.get(current)
            if target is None:
                continue
            for dep in target.deps:
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return seen

    def transitive_dependents(
        self, names: Iterable[TargetName]
    ) -> Set[TargetName]:
        """The reverse-dependency closure of ``names``, including the seeds.

        This is the paper's *affected closure*: editing any source of a seed
        target changes exactly these targets' hashes.
        """
        seen: Set[TargetName] = set()
        frontier: deque = deque()
        for name in names:
            self.target(name)
            if name not in seen:
                seen.add(name)
                frontier.append(name)
        while frontier:
            current = frontier.popleft()
            for dependent in self._dependents.get(current, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    frontier.append(dependent)
        return seen

    def direct_dependents(self, name: TargetName) -> AbstractSet[TargetName]:
        """Targets of this graph that list ``name`` as a dependency.

        A read-only view of the index, not a copy, and ``name`` need not
        be a target here: a dependency only some *other* graph defines
        still has its dependents listed (empty when nothing names it).
        That is the edge set a union of several graphs needs — see
        :func:`repro.conflict.union_graph.cone_conflict`.
        """
        return self._dependents.get(name, _EMPTY)

    def targets_owning(self, path: Path) -> Set[TargetName]:
        """Targets listing ``path`` among their sources (indexed, O(1))."""
        return set(self._owners.get(path, ()))

    def changes_since(
        self, base: "BuildGraph"
    ) -> Tuple[AbstractSet[TargetName], AbstractSet[TargetName]]:
        """``(changed, gone)``: the names this graph declares differently
        from ``base`` (new ones included) and ``base``'s names it lacks.
        The splice's record when :meth:`splice` made this graph from
        ``base``, else a pass over both graphs."""
        if self is base:
            return _EMPTY, _EMPTY
        spliced = self._spliced
        if spliced is not None and spliced[0]() is base:
            return spliced[1], spliced[2]
        before = base._targets
        changed = {
            name
            for name, target in self._targets.items()
            if before.get(name) is not target
            and (name not in before or before[name].definition() != target.definition())
        }
        return changed, {name for name in before if name not in self._targets}

    # -- orders --------------------------------------------------------------

    def _settle_depths(
        self, names: AbstractSet[TargetName], depth: Dict[TargetName, int]
    ) -> None:
        """Fill ``depth`` for ``names`` (closed under dependents), Kahn-style,
        from its entries for their other dependencies; a dependency missing
        from the graph counts 0 (:meth:`validate` rejects those)."""
        targets = self._targets
        waiting = {
            name: sum([dep in names for dep in targets[name].deps]) for name in names
        }
        ready = [name for name, count in waiting.items() if not count]
        while ready:
            name = ready.pop()
            del waiting[name]
            depth[name] = 1 + max(
                [depth.get(dep, 0) for dep in targets[name].deps], default=0
            )
            for dependent in self._dependents.get(name, ()):
                if dependent in waiting:
                    waiting[dependent] -= 1
                    if not waiting[dependent]:
                        ready.append(dependent)
        if waiting:
            raise DependencyCycleError(sorted(waiting))

    def depth_index(self) -> Dict[TargetName, int]:
        """Target -> number of targets on its longest dependency chain.

        A dependency's depth is below its dependents', so sorting names by
        it puts dependencies first: the order hashing walks.  Computed at
        first use (a splice updates its base's where it moved); raises
        :class:`DependencyCycleError`, naming the cycle and what depends
        on it, when the graph is cyclic.
        """
        if self._depth is None:
            depth: Dict[TargetName, int] = {}
            self._settle_depths(self._targets.keys(), depth)
            self._depth = depth
        return self._depth

    def topo_index(self) -> Dict[TargetName, int]:
        """Target -> position in :meth:`topological_order`: build order.

        Sorting any subset by it reproduces exactly the order filtering
        the full one gives.  Computed when a build first walks the graph.
        """
        if self._topo is None:
            self._topo = {
                name: position
                for position, name in enumerate(self.topological_order())
            }
        return self._topo

    # -- shape metrics -----------------------------------------------------

    def depth(self) -> int:
        """Number of targets on the longest dependency chain."""
        return max(self.depth_index().values(), default=0)
