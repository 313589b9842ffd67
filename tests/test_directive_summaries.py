"""Per-target directive summaries: one evaluator, summaries carried by the
``BuildContext``.

Three things are pinned here.  The evaluator over summaries agrees with
the per-step scanner it replaced — kept below, verbatim, as the oracle —
for every ``(target, kind)`` of small graphs with diamonds, shared and
missing sources.  The summaries a context carries through ``derive`` /
``derive_stack`` / ``as_root`` equal those a fresh ``load`` of the same
snapshot scans.  And a build scans nothing: sources are read where they
change (one scan per dirty seed in ``derive``), never in ``build_between``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys import steps as steps_module
from repro.buildsys.executor import BuildContext, BuildExecutor
from repro.buildsys.graph import BuildGraph
from repro.buildsys.loader import render_build_file
from repro.buildsys.steps import (
    CONFLICT_SENSITIVE_STEPS,
    StepResult,
    StepSpec,
    evaluate_step,
    evaluate_target,
    scan_directives,
    summarize,
)
from repro.buildsys.target import Target
from repro.types import StepKind
from repro.vcs.patch import FileOp, OpKind, Patch

from .oracles import build_affected

# -- the oracle: ``evaluate_step`` as it stood before the summaries ------------


def _oracle_step(graph, target, kind, snapshot):
    """Scan the target's own sources, and for a conflict-sensitive kind the
    sources of its whole closure, once per step."""

    def sources(paths):
        return [snapshot.get(path, "") for path in paths]

    spec = StepSpec(target.name, kind)
    fails, _ = scan_directives(sources(target.srcs))
    if fails.get(kind.value):
        return StepResult(
            spec,
            passed=False,
            log=f"{target.name} {kind.value}: FAIL:{kind.value} directive present",
        )
    if kind in CONFLICT_SENSITIVE_STEPS:
        closure_paths = list(target.srcs)
        for dep in sorted(graph.transitive_deps(target.name)):
            closure_paths.extend(graph.target(dep).srcs)
        _, conflicts = scan_directives(sources(closure_paths))
        colliding = sorted(
            token for token, count in conflicts.items() if count >= 2
        )
        if colliding:
            return StepResult(
                spec,
                passed=False,
                log=(
                    f"{target.name} {kind.value}: conflicting tokens "
                    + ", ".join(colliding)
                ),
            )
    return StepResult(spec, passed=True, log=f"{target.name} {kind.value}: ok")


_LINES = (
    "x = 1",
    "# FAIL:unit_test",
    "#FAIL:compile",
    "# FAIL:ui_test # FAIL:artifact",
    "# CONFLICT:t1",
    "#  CONFLICT:t2",
    "# CONFLICT:t1 # CONFLICT:t1",
    "# CONFLICT:t3",
)
_TEXT = st.lists(st.sampled_from(_LINES), max_size=3).map(
    lambda lines: "".join(line + "\n" for line in lines)
)
_STEPS = st.one_of(
    st.none(), st.lists(st.sampled_from(list(StepKind)), min_size=1, unique=True)
)


@st.composite
def _graph_and_snapshot(draw):
    """A DAG of 2-6 targets (deps only on earlier ones, so diamonds are
    common), each with its own source, some listing a source another target
    also lists, some listing a source the snapshot lacks."""
    count = draw(st.integers(min_value=2, max_value=6))
    shared = ["shared/one.py", "shared/two.py"]
    snapshot = {path: draw(_TEXT) for path in shared}
    targets = []
    for index in range(count):
        own = f"p{index}/own.py"
        snapshot[own] = draw(_TEXT)
        srcs = [own] + draw(st.lists(st.sampled_from(shared), unique=True))
        if draw(st.booleans()):
            srcs.append(f"p{index}/missing.py")
        deps = draw(
            st.lists(
                st.sampled_from([t.name for t in targets]), max_size=3, unique=True
            )
            if targets
            else st.just([])
        )
        targets.append(
            Target(f"//p{index}:t", tuple(srcs), tuple(deps), draw(_STEPS))
        )
    return BuildGraph(targets), snapshot


@given(_graph_and_snapshot())
@settings(max_examples=150, deadline=None)
def test_evaluator_equals_the_per_step_scanner(case):
    graph, snapshot = case
    summaries = summarize(graph, snapshot)
    for target in graph:
        expected = [
            _oracle_step(graph, target, kind, snapshot) for kind in target.steps
        ]
        assert evaluate_target(graph, target, summaries) == expected
        for kind in StepKind:  # the one-step spelling, declared or not
            assert evaluate_step(graph, target, kind, snapshot) == _oracle_step(
                graph, target, kind, snapshot
            )


def test_a_diamond_counts_its_shared_dependency_once():
    """``top -> {left, right} -> bottom``: one token in ``bottom`` is one
    occurrence for ``top``, however many paths reach it — folding closure
    counts dependencies-first would make it two."""
    graph = BuildGraph(
        [
            Target("//d:bottom", ("d/bottom.py",)),
            Target("//d:left", ("d/left.py",), ("//d:bottom",)),
            Target("//d:right", ("d/right.py",), ("//d:bottom",)),
            Target("//d:top", ("d/top.py",), ("//d:left", "//d:right")),
        ]
    )
    snapshot = {"d/bottom.py": "# CONFLICT:tok\n"}
    top = graph.target("//d:top")
    assert evaluate_step(graph, top, StepKind.UNIT_TEST, snapshot).passed
    snapshot["d/left.py"] = "# CONFLICT:tok\n"
    failed = evaluate_step(graph, top, StepKind.UNIT_TEST, snapshot)
    assert failed.log == "//d:top unit_test: conflicting tokens tok"
    assert evaluate_step(
        graph, graph.target("//d:right"), StepKind.UNIT_TEST, snapshot
    ).passed


# -- carried summaries equal freshly scanned ones ------------------------------


class _World:
    """A tiny repository as a model: declarations plus source contents."""

    def __init__(self):
        self.targets = {
            "//a:one": (["a/one.py"], []),
            "//a:two": (["a/two.py"], ["//a:one"]),
            "//b:one": (["b/one.py"], ["//a:one"]),
            "//b:two": (["b/two.py"], ["//a:two", "//b:one"]),
        }
        self.contents = {
            "a/one.py": "ONE = 1\n",
            "a/two.py": "TWO = 2\n# CONFLICT:t1\n",
            "b/one.py": "ONE = 1\n",
            "b/two.py": "TWO = 2\n",
        }

    def files(self):
        files = dict(self.contents)
        packages = {}
        for name, (srcs, deps) in sorted(self.targets.items()):
            packages.setdefault(name[2:].split(":")[0], []).append(
                Target(name, tuple(srcs), tuple(deps))
            )
        for package, targets in packages.items():
            files[f"{package}/BUILD"] = render_build_file(targets)
        return files

    def mutate(self, draw):
        """One random edit; deps only ever point at smaller names, so no
        edit can close a cycle."""
        names = sorted(self.targets)
        name = draw(st.sampled_from(names))
        srcs, deps = self.targets[name]
        package = name[2:].split(":")[0]
        siblings = [
            n for n in names if n != name and n[2:].split(":")[0] == package
        ]
        op = draw(
            st.sampled_from(
                ["edit", "edit", "delete_file", "add_target", "remove_target",
                 "move_source", "share_source", "add_dep", "drop_dep"]
            )
        )
        if op == "edit" and srcs:
            self.contents[draw(st.sampled_from(srcs))] = draw(_TEXT)
        elif op == "delete_file" and srcs:
            self.contents.pop(draw(st.sampled_from(srcs)), None)
        elif op == "add_target":
            package = draw(st.sampled_from(["a", "b", "c"]))
            new = f"//{package}:n{len(self.targets)}"
            if new not in self.targets:
                path = f"{package}/n{len(self.targets)}.py"
                self.contents[path] = draw(_TEXT)
                smaller = [n for n in names if n < new]
                self.targets[new] = (
                    [path],
                    draw(st.lists(st.sampled_from(smaller), max_size=2, unique=True))
                    if smaller
                    else [],
                )
        elif op == "remove_target" and len(names) > 1:
            del self.targets[name]
            for _, other_deps in self.targets.values():
                if name in other_deps:
                    other_deps.remove(name)
        elif op == "move_source" and srcs and siblings:
            path = draw(st.sampled_from(srcs))
            srcs.remove(path)
            other = self.targets[draw(st.sampled_from(siblings))][0]
            if path not in other:
                other.append(path)
        elif op == "share_source" and srcs and siblings:
            path = draw(st.sampled_from(srcs))
            other = self.targets[draw(st.sampled_from(siblings))][0]
            if path not in other:
                other.append(path)
        elif op == "add_dep":
            smaller = [n for n in names if n < name and n not in deps]
            if smaller:
                deps.append(draw(st.sampled_from(smaller)))
        elif op == "drop_dep" and deps:
            deps.remove(draw(st.sampled_from(deps)))


def _diff(old, new):
    ops = []
    for path in sorted(set(old) | set(new)):
        before, after = old.get(path), new.get(path)
        if before == after:
            continue
        if after is None:
            ops.append(FileOp(OpKind.DELETE, path))
        elif before is None:
            ops.append(FileOp(OpKind.ADD, path, after))
        else:
            ops.append(FileOp(OpKind.MODIFY, path, after, base_content=before))
    return Patch(ops)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_carried_summaries_equal_a_fresh_load(data):
    world = _World()
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
        fresh = BuildContext.load(dict(files))
        assert derived.snapshot == files
        assert derived.directives == fresh.directives
        assert derived.hashes == fresh.hashes
        if not any(patches):
            assert derived.directives is context.directives
        step = data.draw(st.sampled_from(["root", "flat_root", "chain"]), label="then")
        if step == "chain":
            context = derived
        else:
            context = derived.as_root()
            assert context.directives is derived.directives


# -- a build scans nothing -------------------------------------------------------


def _wide_repo():
    """``//top:top`` with all five steps over a 20-target closure: a chain
    of four layers of five, each target depending on the one below it."""
    files = {}
    below = []
    for layer in range(4):
        names = []
        for index in range(5):
            package = f"l{layer}n{index}"
            deps = [below[index]] if below else []
            files[f"{package}/BUILD"] = (
                f"target(name = 't', srcs = ['a.py', 'b.py'], deps = {deps!r})\n"
            )
            files[f"{package}/a.py"] = "A = 1\n"
            files[f"{package}/b.py"] = "B = 2\n"
            names.append(f"//{package}:t")
        below = names
    files["top/BUILD"] = (
        f"target(name = 'top', srcs = ['top.py'], deps = {below!r},"
        " steps = ['compile', 'unit_test', 'integration_test', 'ui_test',"
        " 'artifact'])\n"
    )
    files["top/top.py"] = "TOP = 1\n"
    return files


def test_sources_are_scanned_where_they_change_and_never_by_a_build(monkeypatch):
    files = _wide_repo()
    base = BuildContext.load(files)
    assert len(base.graph.transitive_deps("//top:top")) == 20

    scanned = []

    def counting(sources):
        sources = list(sources)
        scanned.append(sources)
        return scan_directives(sources)

    monkeypatch.setattr(steps_module, "scan_directives", counting)

    # A path no target lists: no seed, nothing scanned, summaries shared.
    unowned = base.derive_stack([Patch.adding({"docs/README": "# FAIL:compile\n"})])
    assert scanned == [] and unowned.directives is base.directives

    # One bottom-layer source edited: its owner is the only seed, and its
    # two sources are read once — not its four dependents', not per step.
    edit = Patch.modifying({"l0n0/a.py": "A = 1\n# CONFLICT:tok\n"}, base=files)
    changed = base.derive_stack([edit])
    assert scanned == [["A = 1\n# CONFLICT:tok\n", "B = 2\n"]]
    assert changed.directives.token_bearers == {"//l0n0:t"}

    scanned.clear()
    report = BuildExecutor().build_between(base, changed)
    assert report.targets_built[-1] == "//top:top"
    # l0n0 .. l3n0 at two default steps each, then top's five.
    assert report.steps_executed == 4 * 2 + 5 and report.success
    assert scanned == []

    # The from-scratch reference scans at load, each target of both roots
    # once; its build_between adds no scan, on a cold cache or a warm one.
    loads = len(base.graph) + len(changed.graph)
    executor = BuildExecutor()
    cold = build_affected(executor, files, changed.snapshot)
    assert len(scanned) == loads
    assert [(r.spec, r.passed, r.log) for r in cold.results] == [
        (r.spec, r.passed, r.log) for r in report.results
    ]
    scanned.clear()
    assert build_affected(executor, files, changed.snapshot).steps_executed == 0
    assert len(scanned) == loads
