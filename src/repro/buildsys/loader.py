"""BUILD-file parsing, rendering, and whole-snapshot graph loading.

BUILD files use a deliberately tiny dialect — a sequence of
``target(name=..., srcs=[...], deps=[...], steps=[...])`` calls whose
arguments are python literals::

    target(name = 'lib', srcs = ['lib.py'], deps = ['//base:base'])

Files are parsed with :mod:`ast` and evaluated with
:func:`ast.literal_eval`, so BUILD content can never execute code — the
hermeticity the real Buck/Bazel starlark evaluators enforce.  Any
malformed input raises :class:`repro.errors.BuildFileError`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target
from repro.errors import BuildFileError
from repro.types import Path, StepKind

#: Exact file name (within its package directory) the loader recognizes.
BUILD_FILE_NAME = "BUILD"

_ALLOWED_FIELDS = ("name", "srcs", "deps", "steps")


def _literal(package: str, node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise BuildFileError(
            f"{package}/BUILD: arguments must be literals ({exc})"
        ) from None


def _string_list(package: str, field: str, value: object) -> List[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise BuildFileError(
            f"{package}/BUILD: {field} must be a list of strings, got {value!r}"
        )
    return value


def _parse_call(package: str, call: ast.Call) -> Target:
    if not isinstance(call.func, ast.Name) or call.func.id != "target":
        raise BuildFileError(
            f"{package}/BUILD: only target(...) declarations are allowed"
        )
    if call.args:
        raise BuildFileError(
            f"{package}/BUILD: target() takes keyword arguments only"
        )
    fields = {}
    for keyword in call.keywords:
        if keyword.arg is None:
            raise BuildFileError(f"{package}/BUILD: **kwargs are not allowed")
        if keyword.arg not in _ALLOWED_FIELDS:
            raise BuildFileError(
                f"{package}/BUILD: unknown target field {keyword.arg!r}"
            )
        if keyword.arg in fields:
            raise BuildFileError(
                f"{package}/BUILD: duplicate field {keyword.arg!r}"
            )
        fields[keyword.arg] = _literal(package, keyword.value)

    name = fields.get("name")
    if not isinstance(name, str) or not name:
        raise BuildFileError(
            f"{package}/BUILD: target name must be a non-empty string"
        )
    srcs = _string_list(package, "srcs", fields.get("srcs", []))
    if any(not src for src in srcs):
        raise BuildFileError(f"{package}/BUILD: srcs must be non-empty paths")
    deps = _string_list(package, "deps", fields.get("deps", []))

    steps: Optional[Tuple[StepKind, ...]] = None
    if "steps" in fields:
        raw = _string_list(package, "steps", fields["steps"])
        try:
            steps = tuple(StepKind(step) for step in raw)
        except ValueError:
            raise BuildFileError(
                f"{package}/BUILD: unknown step kind in {raw!r}"
            ) from None

    prefix = f"{package}/" if package else ""
    try:
        return Target(
            f"//{package}:{name}",
            srcs=tuple(prefix + src for src in srcs),
            deps=tuple(deps),
            steps=steps,
        )
    except ValueError as exc:
        raise BuildFileError(f"{package}/BUILD: {exc}") from None


def parse_build_file(package: str, content: str) -> List[Target]:
    """Parse one BUILD file's content into its package's targets."""
    try:
        module = ast.parse(content)
    except SyntaxError as exc:
        raise BuildFileError(f"{package}/BUILD: syntax error ({exc.msg})") from None
    targets = []
    for statement in module.body:
        if not isinstance(statement, ast.Expr) or not isinstance(
            statement.value, ast.Call
        ):
            raise BuildFileError(
                f"{package}/BUILD: only target(...) calls are allowed"
            )
        targets.append(_parse_call(package, statement.value))
    return targets


def render_build_file(targets: Sequence[Target]) -> str:
    """Render targets back into BUILD-file content.

    Inverse of :func:`parse_build_file` up to normalization: parsing the
    rendered content yields the same targets (sources relative to the
    package, steps in canonical order).
    """
    blocks = []
    for target in targets:
        prefix = f"{target.package}/" if target.package else ""
        srcs = [
            src[len(prefix):] if prefix and src.startswith(prefix) else src
            for src in target.srcs
        ]
        blocks.append(
            "target(\n"
            f"    name = {target.short_name!r},\n"
            f"    srcs = {sorted(srcs)!r},\n"
            f"    deps = {list(target.deps)!r},\n"
            f"    steps = {[kind.value for kind in target.steps]!r},\n"
            ")\n"
        )
    return "\n".join(blocks)


def build_file_package(path: Path) -> Optional[str]:
    """The package a snapshot path declares, or None for non-BUILD paths."""
    package, _, basename = path.rpartition("/")
    return package if basename == BUILD_FILE_NAME else None


def reload_packages(
    base_graph: BuildGraph,
    snapshot: Mapping[Path, str],
    touched_paths: Iterable[Path],
) -> BuildGraph:
    """Splice re-parsed packages into a structurally-shared graph.

    Only BUILD files among ``touched_paths`` are re-parsed from
    ``snapshot``, and :meth:`~repro.buildsys.graph.BuildGraph.splice`
    replaces just their packages' targets (added, rewritten or deleted
    packages alike); everything else is shared with ``base_graph``.  When
    no touched path is a BUILD file, ``base_graph`` itself is returned.
    Like :func:`load_build_graph`, the result is validated; the caller's
    ``touched_paths`` must cover every path that differs between
    ``base_graph``'s snapshot and ``snapshot``.
    """
    touched_packages = {
        package
        for package in (build_file_package(path) for path in touched_paths)
        if package is not None
    }
    if not touched_packages:
        return base_graph
    try:
        return base_graph.splice(
            (package, _declared(snapshot, package))
            for package in sorted(touched_packages)
        )
    except ValueError as exc:
        raise BuildFileError(str(exc)) from None


def _declared(snapshot: Mapping[Path, str], package: str) -> List[Target]:
    """The targets one package's BUILD file declares in ``snapshot``
    (none when the file is absent)."""
    path = f"{package}/{BUILD_FILE_NAME}" if package else BUILD_FILE_NAME
    content = snapshot.get(path)
    return [] if content is None else parse_build_file(package, content)


def load_build_graph(snapshot: Mapping[Path, str]) -> BuildGraph:
    """Load and validate the build graph of one snapshot.

    ``snapshot`` is any path-to-content mapping (a plain dict or a
    :class:`repro.vcs.repository.Snapshot`).  Only files literally named
    ``BUILD`` are parsed; everything else is source content.  Raises
    :class:`BuildFileError` for unparsable or duplicate declarations and
    :class:`repro.errors.UnknownTargetError` for dangling deps.
    """
    graph = BuildGraph()
    for path in sorted(snapshot):
        package = build_file_package(path)
        if package is None:
            continue
        for target in parse_build_file(package, snapshot[path]):
            try:
                graph.add_target(target)
            except ValueError as exc:
                raise BuildFileError(str(exc)) from None
    graph.validate()
    return graph
