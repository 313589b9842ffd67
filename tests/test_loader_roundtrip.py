"""Loader round-trip identity and malformed-BUILD-file hardening.

``parse_build_file -> render_build_file -> parse_build_file`` must be the
identity on targets (up to the loader's canonical normalization), and every
way a BUILD file can be malformed must surface as BuildFileError — never a
raw SyntaxError/ValueError and never silent acceptance.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys.loader import (
    load_build_graph,
    parse_build_file,
    render_build_file,
)
from repro.errors import BuildFileError
from repro.types import StepKind

from .oracles import graph_structure

_NAME_ALPHABET = string.ascii_lowercase + string.digits


@st.composite
def package_and_targets(draw):
    """One package declaring 1-4 targets with random srcs/deps/steps."""
    package = draw(
        st.sampled_from(["", "pkg", "a/b", "deep/nested/pkg"])
    )
    count = draw(st.integers(min_value=1, max_value=4))
    names = draw(
        st.lists(
            st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=8),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    step_values = [kind.value for kind in StepKind]
    declarations = []
    for index, name in enumerate(names):
        srcs = draw(
            st.lists(
                st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=6).map(
                    lambda stem: stem + ".py"
                ),
                max_size=3,
                unique=True,
            )
        )
        # Deps point at earlier targets in the same package: always resolvable.
        deps = [
            f"//{package}:{other}" for other in draw(
                st.lists(st.sampled_from(names[:index]), unique=True)
            )
        ] if index else []
        steps = draw(
            st.lists(st.sampled_from(step_values), min_size=1, unique=True)
        )
        declarations.append(
            f"target(name={name!r}, srcs={sorted(srcs)!r}, "
            f"deps={sorted(deps)!r}, steps={steps!r})"
        )
    return package, "\n".join(declarations)


class TestRoundTripIdentity:
    @given(package_and_targets())
    @settings(max_examples=80)
    def test_parse_render_parse_is_identity(self, package_and_content):
        package, content = package_and_content
        first = parse_build_file(package, content)
        rendered = render_build_file(first)
        second = parse_build_file(package, rendered)
        assert second == first
        # Rendering is canonical: a second round-trip is a fixed point.
        assert render_build_file(second) == rendered

    def test_whole_snapshot_roundtrip(self, tiny_snapshot):
        graph = load_build_graph(tiny_snapshot)
        rebuilt = dict(tiny_snapshot)
        packages = {target.package for target in graph}
        for package in packages:
            members = [t for t in graph if t.package == package]
            rebuilt[f"{package}/BUILD" if package else "BUILD"] = (
                render_build_file(sorted(members, key=lambda t: t.name))
            )
        rebuilt_graph = load_build_graph(rebuilt)
        assert graph_structure(rebuilt_graph) == graph_structure(graph)


class TestMalformedBuildFiles:
    @pytest.mark.parametrize(
        "bad",
        [
            "target(name='x', srcs=['a.py']) + 1",     # expression, not a call
            "x = target(name='x')",                    # assignment statement
            "target(**{'name': 'x'})",                 # **kwargs
            "target(name='x', name='y')",              # duplicate field
            "target(name='')",                         # empty name
            "target(name='x', srcs=[1])",              # non-string src
            "target(name='x', srcs=[''])",             # empty src path
            "target(name='x', deps='//a:a')",          # deps not a list
            "target(name='x', deps=['//a:a:b'])",      # doubled colon
            "target(name='x', steps='compile')",       # steps not a list
            "target(name='x', steps=[1])",             # non-string step
            "for i in range(3): target(name='x')",     # control flow
            "target(name='x', srcs=['a.py'] * 2)",     # non-literal expression
        ],
    )
    def test_rejected_with_build_file_error(self, bad):
        with pytest.raises(BuildFileError):
            parse_build_file("pkg", bad)

    def test_duplicate_target_across_statements_rejected(self):
        with pytest.raises(BuildFileError):
            load_build_graph(
                {"p/BUILD": "target(name='x')\ntarget(name='x')"}
            )

    def test_self_dependency_rejected_as_build_error(self):
        with pytest.raises(BuildFileError):
            parse_build_file("p", "target(name='x', deps=['//p:x'])")

    def test_error_message_names_the_package(self):
        with pytest.raises(BuildFileError, match="some/pkg"):
            parse_build_file("some/pkg", "target(")
