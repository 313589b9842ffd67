"""Shared identifier types, enums, and small value objects.

These are deliberately lightweight: ids are strings, and the enums encode
the vocabulary used throughout the paper (change lifecycle, build outcome,
build-step kinds).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

# Type aliases used across subsystems.  Plain strings keep repr/debugging
# simple and make serialization trivial.
ChangeId = str
RevisionId = str
CommitId = str
TargetName = str
Path = str
DeveloperId = str


class ChangeState(enum.Enum):
    """Lifecycle of a change submitted to SubmitQueue (paper section 3)."""

    PENDING = "pending"
    COMMITTED = "committed"
    REJECTED = "rejected"
    ABORTED = "aborted"

    @property
    def is_terminal(self) -> bool:
        return self is not ChangeState.PENDING


class StepKind(enum.Enum):
    """Build-step kinds mentioned in the paper (compile, tests, artifacts)."""

    COMPILE = "compile"
    UNIT_TEST = "unit_test"
    INTEGRATION_TEST = "integration_test"
    UI_TEST = "ui_test"
    ARTIFACT = "artifact"


#: Default order in which steps for a target are executed.
DEFAULT_STEP_ORDER: Tuple[StepKind, ...] = (
    StepKind.COMPILE,
    StepKind.UNIT_TEST,
    StepKind.INTEGRATION_TEST,
    StepKind.UI_TEST,
    StepKind.ARTIFACT,
)


@dataclass(frozen=True, order=True)
class BuildKey:
    """Identity of a speculative build.

    A build is fully determined by the change it decides and the set of
    earlier, *conflicting* pending changes it assumes will commit before it
    (the ``B_{1.2}`` notation in the paper: ``change_id`` is the last change
    in the subscript, ``assumed`` the rest).

    The build executes the steps for ``HEAD (+ assumed in submit order)
    (+ change)``.
    """

    change_id: ChangeId
    assumed: FrozenSet[ChangeId] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.change_id in self.assumed:
            raise ValueError(
                f"build key for {self.change_id!r} cannot assume itself"
            )

    @property
    def depth(self) -> int:
        """Number of changes whose success this build speculates on."""
        return len(self.assumed)

    def label(self) -> str:
        """Human-readable ``B_{i.j}`` style label, used in logs and tests."""
        parts = sorted(self.assumed) + [self.change_id]
        return "B[" + ".".join(parts) + "]"


@dataclass(frozen=True)
class AffectedTarget:
    """A (name, hash) pair: one element of the paper's delta sets."""

    name: TargetName
    digest: str
