"""The build-target DAG: lookup, validation, and dep/rdep traversal.

The graph is the substrate for Algorithm-1 hashing (deps-first order), the
affected-target closure (reverse deps), and the section-5.2 structure
comparison that gates the conflict analyzer's fast path.  All traversals
are deterministic: ties are broken by sorted target name, so hashes,
orders, and reports are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, Iterable, Iterator, List, Set, Tuple

from repro.buildsys.target import Target
from repro.errors import DependencyCycleError, UnknownTargetError
from repro.types import Path, TargetName

_NO_DEPENDENTS: AbstractSet[TargetName] = frozenset()


class BuildGraph:
    """A collection of :class:`Target` nodes with dependency edges."""

    def __init__(self, targets: Iterable[Target] = ()) -> None:
        self._targets: Dict[TargetName, Target] = {}
        self._dependents: Dict[TargetName, Set[TargetName]] = {}
        self._owners: Dict[Path, Set[TargetName]] = {}
        for target in targets:
            self.add_target(target)

    # -- construction and lookup ------------------------------------------

    def add_target(self, target: Target) -> None:
        """Add one target; duplicate names are an error."""
        if target.name in self._targets:
            raise ValueError(f"duplicate target {target.name}")
        self._targets[target.name] = target
        self._dependents.setdefault(target.name, set())
        for dep in target.deps:
            self._dependents.setdefault(dep, set()).add(target.name)
        for src in target.srcs:
            self._owners.setdefault(src, set()).add(target.name)

    def target(self, name: TargetName) -> Target:
        try:
            return self._targets[name]
        except KeyError:
            raise UnknownTargetError(name) from None

    def names(self) -> List[TargetName]:
        """All target names, sorted."""
        return sorted(self._targets)

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

    def dependents_of(self, name: TargetName) -> Set[TargetName]:
        """Direct reverse dependencies of one target."""
        self.target(name)
        return set(self._dependents.get(name, ()))

    def direct_dependents(self, name: TargetName) -> AbstractSet[TargetName]:
        """Targets of this graph that list ``name`` as a dependency.

        A read-only view of the index, not a copy, and ``name`` need not
        be a target here: a dependency only some *other* graph defines
        still has its dependents listed (empty when nothing names it).
        That is the edge set a union of several graphs needs — see
        :func:`repro.conflict.union_graph.cone_conflict`.
        """
        return self._dependents.get(name, _NO_DEPENDENTS)

    def targets_owning(self, path: Path) -> Set[TargetName]:
        """Targets listing ``path`` among their sources (indexed, O(1))."""
        return set(self._owners.get(path, ()))

    def induced_order(self, names: Iterable[TargetName]) -> List[TargetName]:
        """Dependencies-first order of the subgraph induced by ``names``.

        Edges to targets outside ``names`` are ignored (the caller already
        knows their hashes/results).  Deterministic like
        :meth:`topological_order`; raises :class:`DependencyCycleError` when
        the induced subgraph is cyclic.
        """
        member = {name for name in names if name in self._targets}
        in_degree: Dict[TargetName, int] = {}
        for name in member:
            in_degree[name] = sum(
                1 for dep in self._targets[name].deps if dep in member
            )
        queue = deque(sorted(n for n, degree in in_degree.items() if degree == 0))
        order: List[TargetName] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for dependent in sorted(self._dependents.get(name, ())):
                if dependent not in member:
                    continue
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    queue.append(dependent)
        if len(order) != len(member):
            raise DependencyCycleError(sorted(member - set(order)))
        return order

    # -- shape metrics -----------------------------------------------------

    def depth(self) -> int:
        """Number of targets on the longest dependency chain."""
        depths: Dict[TargetName, int] = {}
        for name in self.topological_order():
            target = self._targets[name]
            below = [depths[dep] for dep in target.deps if dep in depths]
            depths[name] = 1 + (max(below) if below else 0)
        return max(depths.values(), default=0)

    def roots(self) -> Set[TargetName]:
        """Targets nothing depends on (the graph's top)."""
        return {
            name for name in self._targets if not self._dependents.get(name)
        }
