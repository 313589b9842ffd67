#!/usr/bin/env python3
"""The conflict analyzer up close: target hashes, deltas, and Figure 8.

Walks through section 5 on a real (synthetic) monorepo:

1. affected-target deltas for a change (Algorithm 1 target hashes),
2. the name-intersection fast path for content-only changes,
3. the paper's Figure 8 trap — two changes whose affected-target *names*
   are disjoint but which still conflict through a new dependency edge —
   caught by the union-graph algorithm (Steps 1-4),
4. why conflict analysis matters: the same pending set serializes
   differently on a deep (iOS-like) vs. a wide (backend-like) repo.

Run:  python examples/conflict_analyzer_demo.py
"""

from repro.buildsys.delta import delta_names
from repro.buildsys.executor import BuildContext
from repro.changes.change import Change, Developer, next_change_id, next_revision_id
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.vcs.patch import Patch
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


def wrap(patch, description):
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=Developer("demo-dev"),
        patch=patch,
        description=description,
    )


def independent_components(graph: ConflictGraph) -> int:
    """How many connected components the pending changes form: changes in
    different components build and commit fully in parallel."""
    seen = set()
    count = 0
    for change_id in graph.in_order():
        if change_id in seen:
            continue
        count += 1
        frontier = [change_id]
        while frontier:
            current = frontier.pop()
            if current not in seen:
                seen.add(current)
                frontier.extend(graph.neighbors(current))
    return count


def main() -> None:
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(3, 4, 4), fan_in=2), seed=3)
    snapshot = monorepo.repo.snapshot().to_dict()
    analyzer = ConflictAnalyzer(BuildContext.load(snapshot))

    # 1. Affected-target delta of one change.
    base_target = monorepo.target_names(layer=0)[0]
    change = monorepo.make_clean_change(base_target)
    delta = analyzer.affected_targets(change)
    print(f"editing one source of {base_target} affects "
          f"{len(delta)} targets (the reverse-dependency closure):")
    for name in sorted(delta_names(delta)):
        print(f"  {name}")

    # 2. Fast path: content-only changes compare name sets.
    other = monorepo.make_clean_change(monorepo.target_names(layer=0)[1])
    print(f"\nconflict({change.change_id}, {other.change_id}) = "
          f"{analyzer.conflict(change, other)}")
    print(f"analyzer stats so far: {analyzer.stats.fast_path} fast-path, "
          f"{analyzer.stats.slow_path} slow-path checks")

    # 3. Figure 8: disjoint affected names, real structural interaction.
    leaf = monorepo.target_names(layer=0)[2]
    leaf_src = monorepo.source_of(leaf)
    c1 = wrap(
        Patch.modifying({leaf_src: snapshot[leaf_src] + "# edit\n"},
                        base={leaf_src: snapshot[leaf_src]}),
        f"content edit of {leaf}",
    )
    # c2 adds a brand-new target depending on a target *affected by c1*.
    dependent = sorted(monorepo.graph.transitive_dependents([leaf]))[-1]
    c2 = wrap(
        Patch.adding({
            "newpkg/BUILD": (
                "target(name='new', srcs=['n.py'], "
                f"deps = [{dependent!r}])"
            ),
            "newpkg/n.py": "N = 1\n",
        }),
        "adds //newpkg:new depending on " + dependent,
    )
    names_1 = delta_names(analyzer.affected_targets(c1))
    names_2 = delta_names(analyzer.affected_targets(c2))
    print(f"\nFigure-8 scenario:")
    print(f"  affected names of c1: {len(names_1)} targets")
    print(f"  affected names of c2: {sorted(names_2)}")
    print(f"  name intersection:    {sorted(names_1 & names_2)} (empty!)")
    print(f"  union-graph verdict:  conflict = {analyzer.conflict(c1, c2)}")
    print(f"  Equation-6 verdict:   conflict = {analyzer.conflict_equation6(c1, c2)}")

    # 4. Conflict-graph density: deep vs. wide repos.
    for label, spec in (
        ("deep (iOS-like)", MonorepoSpec(layers=(2, 3, 4, 5), fan_in=3)),
        ("wide (backend-like)", MonorepoSpec(layers=(14,), fan_in=1)),
    ):
        shaped = SyntheticMonorepo(spec, seed=9)
        shaped_analyzer = ConflictAnalyzer(
            BuildContext.load(shaped.repo.snapshot().to_dict())
        )
        graph = ConflictGraph(shaped_analyzer.conflict)
        changes = [shaped.make_clean_change() for _ in range(10)]
        for pending in changes:
            graph.add(pending)
        print(
            f"\n{label}: 10 pending changes -> {graph.edge_count()} conflict "
            f"edges, {independent_components(graph)} independent components"
        )
    print(
        "\nReading: the deeper the target graph, the denser the conflict "
        "graph, and the fewer changes can commit in parallel (section 8.4)."
    )


if __name__ == "__main__":
    main()
