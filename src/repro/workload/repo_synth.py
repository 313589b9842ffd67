"""Synthetic monorepos with real BUILD files and sources.

Full-stack tests and examples need an actual repository the build system
can load.  :class:`SyntheticMonorepo` materializes a layered target DAG —
leaf libraries at the bottom, apps at the top, configurable fan-in — and
mints changes with real patches:

* a clean change appends an innocuous comment to a target's source;
* a broken change plants a ``# FAIL:<step>`` directive;
* a pair of conflicting changes each plant one ``# CONFLICT:<token>``
  occurrence reachable from a shared dependent target, so each passes
  alone and the pair fails together (a real conflict, section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.buildsys.graph import BuildGraph
from repro.buildsys.loader import load_build_graph
from repro.changes.change import (
    Change,
    Developer,
    next_change_id,
    next_revision_id,
)
from repro.types import Path, TargetName
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class MonorepoSpec:
    """Shape of a synthetic monorepo.

    ``layers[i]`` is the number of targets in layer ``i``; each target in
    layer ``i > 0`` depends on ``fan_in`` targets of layer ``i - 1``.  Deep
    narrow shapes emulate the paper's iOS repo ("only a handful of
    leaf-level nodes"); wide flat shapes emulate the backend repo.
    """

    layers: Tuple[int, ...] = (4, 8, 16)
    fan_in: int = 2
    files_per_target: int = 2
    with_ui_tests: bool = False
    #: Path prefix for every package (e.g. ``"island0/"``), letting
    #: several specs materialize into one merged snapshot as disjoint
    #: connected components (:func:`mint_partitioned_cell`).
    package_prefix: str = ""

    def __post_init__(self) -> None:
        if not self.layers or any(n <= 0 for n in self.layers):
            raise ValueError("layers must be non-empty positive counts")
        if self.fan_in <= 0:
            raise ValueError("fan_in must be positive")


class SyntheticMonorepo:
    """A repository + build graph synthesized from a spec."""

    def __init__(self, spec: MonorepoSpec = MonorepoSpec(), seed: int = 0) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        files, layer_targets = self._materialize(spec)
        self.repo = Repository(files)
        self._layer_targets = layer_targets
        self._graph = load_build_graph(self.repo.snapshot())
        self.developers = [
            Developer(developer_id=f"dev{i:03d}", name=f"engineer-{i}",
                      tenure_years=1.0 + i % 5, level=3 + i % 3)
            for i in range(8)
        ]

    def _materialize(
        self, spec: MonorepoSpec
    ) -> Tuple[Dict[Path, str], List[List[TargetName]]]:
        files: Dict[Path, str] = {}
        layer_targets: List[List[TargetName]] = []
        for layer_index, width in enumerate(spec.layers):
            names: List[TargetName] = []
            for slot in range(width):
                package = f"{spec.package_prefix}layer{layer_index}/t{slot:03d}"
                target_name = f"//{package}:lib"
                srcs = []
                for file_index in range(spec.files_per_target):
                    rel = f"src_{file_index}.py"
                    files[f"{package}/{rel}"] = (
                        f"# module {package}/{rel}\n"
                        f"VALUE = {layer_index * 100 + slot}\n"
                    )
                    srcs.append(rel)
                deps: List[TargetName] = []
                if layer_index > 0:
                    below = layer_targets[layer_index - 1]
                    fan = min(spec.fan_in, len(below))
                    picks = self._rng.choice(len(below), size=fan, replace=False)
                    deps = sorted(below[int(p)] for p in picks)
                steps = ["compile", "unit_test"]
                if spec.with_ui_tests and layer_index == len(spec.layers) - 1:
                    steps.append("ui_test")
                files[f"{package}/BUILD"] = (
                    "target(\n"
                    f"    name = 'lib',\n"
                    f"    srcs = {sorted(srcs)!r},\n"
                    f"    deps = {deps!r},\n"
                    f"    steps = {steps!r},\n"
                    ")\n"
                )
                names.append(target_name)
            layer_targets.append(names)
        return files, layer_targets

    # -- inspection -----------------------------------------------------------

    @property
    def graph(self) -> BuildGraph:
        return self._graph

    def target_names(self, layer: Optional[int] = None) -> List[TargetName]:
        if layer is None:
            return [name for names in self._layer_targets for name in names]
        return list(self._layer_targets[layer])

    def source_of(self, target_name: TargetName, index: int = 0) -> Path:
        """A source path belonging to ``target_name``."""
        target = self._graph.target(target_name)
        return target.srcs[index % len(target.srcs)]

    # -- minting changes ------------------------------------------------------

    def _pick_developer(self) -> Developer:
        return self.developers[int(self._rng.integers(len(self.developers)))]

    def _edit_patch(self, path: Path, suffix: str) -> Patch:
        snapshot = self.repo.snapshot()
        base = snapshot.read(path)
        return Patch.modifying({path: base + suffix}, base={path: base})

    def make_clean_change(
        self,
        target_name: Optional[TargetName] = None,
        submitted_at: float = 0.0,
        source_index: int = 0,
    ) -> Change:
        """A change that passes all build steps.

        ``source_index`` picks which of the target's sources to edit, so
        callers minting many changes against one target can keep their
        patches textually disjoint.
        """
        name = target_name or self._random_target()
        path = self.source_of(name, index=source_index)
        marker = int(self._rng.integers(1 << 30))
        patch = self._edit_patch(path, f"# tweak {marker}\n")
        return self._wrap(patch, submitted_at, f"clean edit of {name}")

    def make_broken_change(
        self,
        target_name: Optional[TargetName] = None,
        step: str = "unit_test",
        submitted_at: float = 0.0,
    ) -> Change:
        """A change that fails ``step`` on its own (individually broken)."""
        name = target_name or self._random_target()
        path = self.source_of(name)
        patch = self._edit_patch(path, f"# FAIL:{step}\n")
        return self._wrap(patch, submitted_at, f"broken edit of {name}")

    def make_conflicting_pair(
        self,
        token: Optional[str] = None,
        target_name: Optional[TargetName] = None,
        submitted_at: float = 0.0,
    ) -> Tuple[Change, Change]:
        """Two changes that pass alone and really conflict together.

        Both edits land in *different* source files of the same target, so
        each individual build sees one ``CONFLICT`` token (pass) and the
        combined build sees two (fail).
        """
        name = target_name or self._random_target()
        target = self._graph.target(name)
        if len(target.srcs) < 2:
            raise ValueError(f"{name} needs >= 2 sources for a conflict pair")
        token = token or f"tok{int(self._rng.integers(1 << 30))}"
        first = self._wrap(
            self._edit_patch(target.srcs[0], f"# CONFLICT:{token}\n"),
            submitted_at,
            f"conflict half A on {name}",
        )
        second = self._wrap(
            self._edit_patch(target.srcs[1], f"# CONFLICT:{token}\n"),
            submitted_at,
            f"conflict half B on {name}",
        )
        return first, second

    def make_structural_change(self, submitted_at: float = 0.0) -> Change:
        """A change that alters build-graph structure (adds a target)."""
        index = int(self._rng.integers(1 << 30))
        package = f"{self.spec.package_prefix}generated/g{index:08x}"
        deps = [self._layer_targets[0][0]]
        files = {
            f"{package}/src_0.py": f"# generated module {index}\nVALUE = {index}\n",
            f"{package}/BUILD": (
                "target(\n"
                "    name = 'lib',\n"
                "    srcs = ['src_0.py'],\n"
                f"    deps = {deps!r},\n"
                "    steps = ['compile', 'unit_test'],\n"
                ")\n"
            ),
        }
        patch = Patch.adding(files)
        return self._wrap(patch, submitted_at, f"new target {package}")

    def _random_target(self) -> TargetName:
        names = self.target_names()
        return names[int(self._rng.integers(len(names)))]

    def _wrap(self, patch: Patch, submitted_at: float, description: str) -> Change:
        developer = self._pick_developer()
        return Change(
            change_id=next_change_id(),
            revision_id=next_revision_id(),
            developer=developer,
            patch=patch,
            base_commit=self.repo.head(),
            submitted_at=submitted_at,
            description=description,
        )


def mint_partitioned_cell(
    islands: int = 4,
    seed: int = 23,
    count: int = 64,
    layers: Tuple[int, ...] = (3, 4, 3),
    fan_in: int = 2,
    files_per_target: int = 2,
) -> Tuple[Dict[str, str], List[Change]]:
    """``islands`` disjoint components + ``count`` clean changes.

    The figure-12 monorepo is a single connected component; this cell's
    target graph genuinely decomposes: ``islands`` copies of a layered
    spec under disjoint package prefixes (``island0/…``, ``island1/…``)
    merged into one snapshot, so a change can only conflict with the
    pending changes of its own island.

    Returns ``(files, changes)`` like :func:`repro.parallel.workload.mint_cell`;
    changes are round-robin across islands (change ``i`` edits island
    ``i % islands``) and each stays inside its island.  Within an island,
    consecutive changes walk distinct (target, source) slots, so as long
    as ``count <= islands * targets * files_per_target`` no two patches
    touch the same file and every change lands cleanly.
    """
    if islands < 1:
        raise ValueError("islands must be >= 1")
    synths = [
        SyntheticMonorepo(
            MonorepoSpec(
                layers=layers,
                fan_in=fan_in,
                files_per_target=files_per_target,
                package_prefix=f"island{k}/",
            ),
            seed=seed + k,
        )
        for k in range(islands)
    ]
    files: Dict[str, str] = {}
    for synth in synths:
        files.update(synth.repo.snapshot().to_dict())
    changes: List[Change] = []
    for index in range(count):
        synth = synths[index % islands]
        targets = synth.target_names()
        slot = index // islands
        changes.append(
            synth.make_clean_change(
                target_name=targets[slot % len(targets)],
                submitted_at=0.0,
                source_index=slot // len(targets),
            )
        )
    return files, changes
