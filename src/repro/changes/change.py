"""Change, Developer, and ground-truth labels.

Changes come in two fidelities sharing one type:

* **full-stack** changes carry a :class:`~repro.vcs.patch.Patch` and are
  built for real through the build-system substrate;
* **label-mode** changes carry a :class:`GroundTruth` (affected targets,
  individual pass/fail, conflict coin seed) and a sampled build duration,
  so the large evaluation sweeps can decide build outcomes without running
  the build system.

A change may carry both, in which case ground truth is used by oracles and
the patch by executors — tests assert they agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.types import ChangeId, CommitId, DeveloperId, RevisionId, TargetName
from repro.vcs.patch import Patch

_change_counter = itertools.count(1)
_revision_counter = itertools.count(1)


def next_change_id() -> ChangeId:
    return f"D{next(_change_counter):06d}"


def next_revision_id() -> RevisionId:
    return f"R{next(_revision_counter):06d}"


@dataclass(frozen=True)
class Developer:
    """A developer account with the latent traits the predictor learns.

    ``skill`` is the latent probability-ish quality signal (experienced
    developers "do due diligence before landing", section 7.2);
    ``area_fragility`` models developers working on fragile code paths
    whose "initial land attempts fail more often".
    """

    developer_id: DeveloperId
    name: str = ""
    tenure_years: float = 1.0
    level: int = 3
    skill: float = 0.8
    area_fragility: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.skill <= 1.0:
            raise ValueError("skill must be in [0, 1]")
        if not 0.0 <= self.area_fragility <= 1.0:
            raise ValueError("area_fragility must be in [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    """Label-mode truth about a change, fixed at generation time.

    * ``individually_ok`` — would all build steps pass when this change is
      applied alone on a healthy HEAD?
    * ``target_names`` — the names in ``δ_{H⊕C}`` (the affected-target
      closure, *including* shared high-level hub targets like the app
      binary); two changes *potentially* conflict — in the conflict
      analyzer's sense — when these sets intersect.  On a deep build graph
      this relation is dense (paper section 8.4).
    * ``module_names`` — the fine-grained "logical parts" the change
      actually touches (a subset view without hubs).  Real conflicts only
      arise between changes whose module sets overlap — sharing only the
      app-binary hub serializes two changes but cannot make them break
      each other.  Empty means "use ``target_names``".
    * ``conflict_salt`` — per-change randomness folded into the pairwise
      real-conflict coin, so outcomes are deterministic across strategies.
    * ``changes_build_graph`` — whether the change alters build-graph
      structure (drives the conflict analyzer fast path of section 5.2).
    """

    individually_ok: bool = True
    target_names: FrozenSet[TargetName] = frozenset()
    module_names: FrozenSet[TargetName] = frozenset()
    conflict_salt: int = 0
    real_conflict_rate: float = 0.0
    changes_build_graph: bool = False

    def fine_names(self) -> FrozenSet[TargetName]:
        """The module set gating real conflicts (falls back to targets)."""
        return self.module_names if self.module_names else self.target_names


@dataclass
class Change:
    """One submit request: patch + required build steps + metadata."""

    change_id: ChangeId
    revision_id: RevisionId
    developer: Developer
    patch: Optional[Patch] = None
    base_commit: Optional[CommitId] = None
    submitted_at: float = 0.0
    description: str = ""
    #: Static presubmit features (counts of files/lines/targets, initial
    #: test status, ...); the feature extractor reads and extends these.
    features: Dict[str, float] = field(default_factory=dict)
    ground_truth: Optional[GroundTruth] = None
    #: Sampled duration (minutes) of this change's build steps; used by the
    #: simulator in label mode and ignored in full-stack mode.
    build_duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.patch is None and self.ground_truth is None:
            raise ValueError(
                f"change {self.change_id}: needs a patch or ground truth"
            )

    @property
    def developer_id(self) -> DeveloperId:
        return self.developer.developer_id

    def __repr__(self) -> str:
        mode = []
        if self.patch is not None:
            mode.append("patch")
        if self.ground_truth is not None:
            mode.append("labels")
        return f"Change({self.change_id}, {'+'.join(mode)})"
