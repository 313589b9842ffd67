"""Build targets and ``//package:name`` label parsing.

A :class:`Target` is a normalized, immutable build-graph node: sources and
dependencies are deduplicated and sorted, and the step list is reordered
into the canonical pipeline order of :data:`repro.types.DEFAULT_STEP_ORDER`.
Normalizing here means every downstream consumer (hashing, structure
comparison, rendering) sees one canonical form per declaration, so
semantically identical BUILD files always produce identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

from repro.types import DEFAULT_STEP_ORDER, Path, StepKind, TargetName

if TYPE_CHECKING:
    from repro.buildsys.steps import StepResult

#: Steps a target runs when its BUILD declaration does not list any.
DEFAULT_STEPS: Tuple[StepKind, ...] = (StepKind.COMPILE, StepKind.UNIT_TEST)

_STEP_RANK = {kind: index for index, kind in enumerate(DEFAULT_STEP_ORDER)}


def hash_frame(tag: bytes, payload: bytes) -> bytes:
    """One length-prefixed Algorithm-1 hash-input frame: tag, size, NUL, payload."""
    return b"%s%d\x00%s" % (tag, len(payload), payload)


def _split_label(name: object) -> Tuple[str, str]:
    """Split ``//package:short`` into its parts, validating the shape."""
    if not isinstance(name, str):
        raise ValueError(f"target label must be a string, got {name!r}")
    if not name.startswith("//"):
        raise ValueError(f"target label must start with '//': {name!r}")
    body = name[2:]
    package, colon, short = body.partition(":")
    if not colon:
        raise ValueError(f"target label must contain ':': {name!r}")
    if not short or ":" in short:
        raise ValueError(f"malformed target short name in {name!r}")
    if package.startswith("/") or package.endswith("/"):
        raise ValueError(f"malformed package in {name!r}")
    return package, short


def target_package(name: TargetName) -> str:
    """The package part of a label: ``//a/b:c`` -> ``a/b``."""
    return _split_label(name)[0]


def target_short_name(name: TargetName) -> str:
    """The short-name part of a label: ``//a/b:c`` -> ``c``."""
    return _split_label(name)[1]


@dataclass(frozen=True)
class Target:
    """One build target: label, sources, dependencies, and build steps.

    ``srcs`` are snapshot paths (already package-prefixed — the loader does
    that), ``deps`` are full target labels, and ``steps`` defaults to
    compile + unit test when not declared.
    """

    name: TargetName
    srcs: Tuple[Path, ...] = ()
    deps: Tuple[TargetName, ...] = ()
    steps: Optional[Tuple[StepKind, ...]] = None

    def __post_init__(self) -> None:
        _split_label(self.name)

        srcs = tuple(sorted(dict.fromkeys(self.srcs)))
        for src in srcs:
            if not isinstance(src, str) or not src:
                raise ValueError(f"{self.name}: srcs must be non-empty strings")

        deps = tuple(sorted(dict.fromkeys(self.deps)))
        for dep in deps:
            _split_label(dep)
            if dep == self.name:
                raise ValueError(f"{self.name} cannot depend on itself")

        raw_steps = DEFAULT_STEPS if self.steps is None else tuple(self.steps)
        for step in raw_steps:
            if not isinstance(step, StepKind):
                raise ValueError(f"{self.name}: unknown step {step!r}")
        steps = tuple(sorted(set(raw_steps), key=_STEP_RANK.__getitem__))

        object.__setattr__(self, "srcs", srcs)
        object.__setattr__(self, "deps", deps)
        object.__setattr__(self, "steps", steps)

    @cached_property
    def package(self) -> str:
        """The label's package, parsed once per target."""
        return target_package(self.name)

    @property
    def short_name(self) -> str:
        return target_short_name(self.name)

    @cached_property
    def hash_frames(self) -> Tuple[bytes, Tuple[bytes, ...], Tuple[bytes, ...]]:
        """The declaration's hash-input frames, encoded once per target.

        ``(name + step frames, one frame per src, one frame per dep)`` in
        declaration order; :class:`~repro.buildsys.hashing.TargetHasher`
        interleaves the per-snapshot content and dependency digests.
        Targets are shared between graphs, so every rehash after the first
        reuses these bytes.
        """
        head = hash_frame(b"name", self.name.encode("utf-8")) + b"".join(
            hash_frame(b"step", kind.value.encode("utf-8")) for kind in self.steps
        )
        return (
            head,
            tuple(hash_frame(b"src", src.encode("utf-8")) for src in self.srcs),
            tuple(hash_frame(b"dep", dep.encode("utf-8")) for dep in self.deps),
        )

    @cached_property
    def passing_entries(self) -> Tuple[Tuple[StepResult, StepResult], ...]:
        """Each step's passing result, as run and marked cached, built once
        per target.

        :func:`~repro.buildsys.steps.evaluate_entries` hands these out for
        every step without a FAIL directive or a colliding token, and the
        artifact cache stores them as they are, so every digest this
        declaration ever has shares one pair per step instead of
        allocating two results per build.
        """
        from repro.buildsys.steps import step_entry  # steps imports this module

        return tuple(step_entry(self.name, kind, True, "ok") for kind in self.steps)

    def definition(self) -> Tuple:
        """The target's structural identity (everything but file contents).

        Two snapshots whose graphs agree on every target's definition have
        the same build-graph *structure* in the section-5.2 sense, which is
        what gates the conflict analyzer's name-intersection fast path.
        """
        return (self.name, self.srcs, self.deps, self.steps)
