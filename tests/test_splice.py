"""A structural derive splices the touched packages into its base graph.

Three things are pinned here.  The spliced graph equals a from-scratch
load of the same snapshot in everything the rest of the system reads —
structure, source owners, dependents, build order and depth — and the
seeded rehash over it equals an unseeded one, across random package
adds, deletes, redeclarations and rewirings.  A stacked BUILD edit that
closes a cycle is still refused by ``derive``.  And a derive that adds one
package to a large graph costs that package, not the graph: counted in
calls, not timed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys import target as target_module
from repro.buildsys.executor import BuildContext
from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.loader import load_build_graph
from repro.buildsys.target import Target
from repro.errors import DependencyCycleError
from repro.vcs.patch import Patch

from .oracles import graph_structure
from .test_directive_summaries import _TEXT, _World, _diff


class _Packages(_World):
    """The summaries' random monorepo, plus whole-package edits and BUILD
    files rewritten without a change of definition."""

    def __init__(self):
        super().__init__()
        self.revision = {}

    def files(self):
        files = super().files()
        for package, revision in self.revision.items():
            path = f"{package}/BUILD"
            if path in files:
                files[path] += f"# revision {revision}\n"
        return files

    def mutate(self, draw):
        op = draw(st.sampled_from(["target", "target", "add", "delete", "reformat"]))
        packages = sorted({name[2:].split(":")[0] for name in self.targets})
        if op == "add":
            package = f"p{len(self.revision) + len(self.targets)}"
            name = f"//{package}:t"
            path = f"{package}/t.py"
            self.contents[path] = draw(_TEXT)
            smaller = sorted(n for n in self.targets if n < name)
            deps = (
                draw(st.lists(st.sampled_from(smaller), max_size=2, unique=True))
                if smaller
                else []
            )
            self.targets[name] = ([path], deps)
        elif op == "delete" and len(packages) > 1:
            package = draw(st.sampled_from(packages))
            doomed = [n for n in self.targets if n.startswith(f"//{package}:")]
            for name in doomed:
                del self.targets[name]
            for _, deps in self.targets.values():
                deps[:] = [dep for dep in deps if dep not in doomed]
        elif op == "reformat":
            package = draw(st.sampled_from(packages))
            self.revision[package] = self.revision.get(package, 0) + 1
        else:
            super().mutate(draw)


def _paths_and_names(*graphs):
    paths, names = set(), set()
    for graph in graphs:
        for target in graph:
            names.add(target.name)
            names.update(target.deps)
            paths.update(target.srcs)
    return paths, names


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_spliced_graph_equals_a_fresh_load(data):
    world = _Packages()
    files = world.files()
    context = BuildContext.load(dict(files))
    for _ in range(data.draw(st.integers(min_value=1, max_value=5), label="rounds")):
        patches = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="stack")):
            world.mutate(data.draw)
            after = world.files()
            patches.append(_diff(files, after))
            files = after
        derived = context.derive_stack(patches)
        graph, fresh = derived.graph, load_build_graph(dict(files))

        assert graph_structure(graph) == graph_structure(fresh)
        paths, names = _paths_and_names(context.graph, graph, fresh)
        for path in paths:
            assert graph.targets_owning(path) == fresh.targets_owning(path)
        for name in names:
            assert set(graph.direct_dependents(name)) == set(
                fresh.direct_dependents(name)
            )
        assert graph.topological_order() == fresh.topological_order()
        assert graph.depth_index() == fresh.depth_index()
        assert graph.depth() == fresh.depth()
        # A target whose declaration did not change is the base's object.
        for target in graph:
            if target.name in context.graph:
                old = context.graph.target(target.name)
                assert (target is old) == (target.definition() == old.definition())
        # The seeded rehash equals an unseeded one over the fresh graph.
        assert dict(derived.hashes) == TargetHasher(fresh, files).all_hashes()

        if data.draw(st.booleans(), label="as_root"):
            context = derived.as_root()
        else:
            context = derived


def _build(name, deps=()):
    return f"target(name={name!r}, srcs=['{name}.py'], deps={list(deps)!r})\n"


def test_a_stacked_edit_that_closes_a_cycle_is_refused():
    """``a -> b`` at the base; one patch adds ``b -> c``, the next
    ``c -> a``.  Each loads on its own; stacked, derive refuses the cycle
    and names it with what depends on it, as at load."""
    files = {
        "a/BUILD": _build("a", ["//b:b"]),
        "b/BUILD": _build("b"),
        "c/BUILD": _build("c"),
        "top/BUILD": _build("top", ["//a:a"]),
        **{f"{name}/{name}.py": name + "\n" for name in ("a", "b", "c", "top")},
    }
    base = BuildContext.load(files)
    first = Patch.modifying({"b/BUILD": _build("b", ["//c:c"])}, base=files)
    second = Patch.modifying({"c/BUILD": _build("c", ["//a:a"])}, base=files)
    message = "dependency cycle: //a:a -> //b:b -> //c:c -> //top:top"
    with pytest.raises(DependencyCycleError) as stacked:
        base.derive_stack([first, second])
    assert str(stacked.value) == message
    chained = base.derive_stack([first])
    with pytest.raises(DependencyCycleError) as again:
        chained.derive_stack([second])
    assert str(again.value) == message
    with pytest.raises(DependencyCycleError) as loaded:
        BuildContext.load(dict(chained.derive_stack([]).snapshot, **second.delta()))
    assert str(loaded.value) == message


# -- a structural derive costs its package ---------------------------------------


def _large_repo(width=1000):
    """``width`` one-target packages, each depending on the two before it."""
    files = {}
    for index in range(width):
        deps = [f"//p{below:04d}:t" for below in (index - 1, index - 2) if below >= 0]
        files[f"p{index:04d}/BUILD"] = (
            f"target(name = 't', srcs = ['t.py'], deps = {deps!r})\n"
        )
        files[f"p{index:04d}/t.py"] = f"T = {index}\n"
    return files


def test_adding_one_package_costs_that_package(monkeypatch):
    files = _large_repo()
    base = BuildContext.load(files)
    assert len(base.graph) >= 1000

    calls = {"add_target": 0, "label": 0, "validate": 0, "definition": 0, "iter": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        BuildGraph, "add_target", counting("add_target", BuildGraph.add_target)
    )
    monkeypatch.setattr(
        target_module, "_split_label", counting("label", target_module._split_label)
    )
    monkeypatch.setattr(BuildGraph, "validate", counting("validate", BuildGraph.validate))
    monkeypatch.setattr(Target, "definition", counting("definition", Target.definition))
    monkeypatch.setattr(BuildGraph, "__iter__", counting("iter", BuildGraph.__iter__))

    patch = Patch.adding(
        {
            "new/BUILD": (
                "target(name = 'lib', srcs = ['lib.py'],"
                " deps = ['//p0000:t', '//p0998:t'])\n"
            ),
            "new/lib.py": "LIB = 1\n",
        }
    )
    derived = base.derive_stack([patch])
    # One new target with two deps: its label and theirs, read once each.
    assert calls == dict(add_target=0, label=3, validate=0, definition=0, iter=0)
    assert derived.rehashed == 1
    assert len(derived.graph) == len(base.graph) + 1

    monkeypatch.undo()
    merged = dict(files, **patch.delta())
    assert dict(derived.hashes) == TargetHasher(
        load_build_graph(merged), merged
    ).all_hashes()
