"""Deterministic workload fixtures, their ground truth, and a CSV wire form.

A fixture is the base snapshot of one shared synthetic monorepo plus an
ordered stream of changes, each with its arrival offset, its kind and
the outcome the queue must reach for it.

What ``--seed`` draws and what it does not.  The queue is chaotic in
arrival order: shuffling the burst inside blocks of four put
``turnaround_p50_min`` anywhere from 274 to 447 sim-min over ten shuffles
(authoring probe, bench/README.md), so a seed that redrew the order would bury every
simulated metric in fixture noise.  The *skeleton* of a workload — which
target each arrival touches, its kind, its position — is therefore
frozen per workload, and the seed draws everything the skeleton leaves
open: which of a target's source files each touch edits, the text of
every patch, the conflict tokens, the generated package names and the
submitting developer.  Two seeds give different inputs whose decisions
have the same shape, so simulated metrics repeat exactly while hashes,
journal bytes and call counts differ in their low digits.

Every change edits a source file no other change of the fixture edits,
so no patch goes stale when an earlier one lands (a stale patch escapes
``CoreService.submit`` as ``PatchConflictError``; see the README).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.changes.change import (
    Change,
    Developer,
    next_change_id,
    next_revision_id,
)
from repro.journal.records import decode_change, encode_change
from repro.vcs.patch import Patch
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: The shared monorepo: 112 targets in five layers, 448 sources.
MONOREPO_SPEC = MonorepoSpec(
    layers=(16, 24, 32, 24, 16), fan_in=2, files_per_target=4
)
#: Seeds the dependency edges of the monorepo; not a workload input.
MONOREPO_SEED = 23
#: Simulated build workers of every workload's service.
SERVICE_WORKERS = 8

CLEAN, BROKEN, PAIR_A, PAIR_B, STRUCTURAL = (
    "clean", "broken", "pair_a", "pair_b", "structural",
)
#: Ground truth: the kinds the queue must land; every other kind it rejects.
COMMITTED_KINDS = frozenset({CLEAN, PAIR_A, STRUCTURAL})

CSV_HEADER = ("request_id", "arrival_offset", "mode", "priority", "body_json")


@dataclass(frozen=True)
class WorkloadSpec:
    """Arrival shape of one workload (counts tuned to the CPU budget)."""

    name: str
    count: int
    #: Simulated minutes between arrivals; ``None`` submits all at t=0.
    gap: Optional[float]
    broken_share: float = 0.0
    pair_half_share: float = 0.0
    structural_share: float = 0.0
    #: Driven over HTTP with journal and recorder attached.
    served: bool = False
    #: Name of the workload whose skeleton this one is a prefix of.
    prefix_of: Optional[str] = None


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("steady_shallow", count=320, gap=10.0, broken_share=0.05),
        WorkloadSpec("burst_deep", count=104, gap=None),
        WorkloadSpec(
            "conflict_storm",
            count=192,
            gap=3.0,
            broken_share=0.15,
            pair_half_share=0.30,
            structural_share=0.05,
        ),
        WorkloadSpec(
            "served_durable",
            count=96,
            gap=None,
            broken_share=0.05,
            served=True,
            prefix_of="steady_shallow",
        ),
    )
}


@dataclass
class FixtureItem:
    """One arrival: the change, when it arrives, and what must happen."""

    change: Change
    arrival: float
    kind: str

    @property
    def expect_committed(self) -> bool:
        return self.kind in COMMITTED_KINDS


@dataclass
class Fixture:
    workload: str
    seed: int
    files: Dict[str, str]
    items: List[FixtureItem]


def _skeleton(spec: WorkloadSpec, targets: int) -> List[Tuple[str, int]]:
    """The frozen ``(kind, target index)`` per arrival position."""
    if spec.prefix_of is not None:
        return _skeleton(WORKLOADS[spec.prefix_of], targets)[: spec.count]
    rng = random.Random(f"skeleton:{spec.name}")
    pairs = round(spec.count * spec.pair_half_share / 2)
    broken = round(spec.count * spec.broken_share)
    structural = round(spec.count * spec.structural_share)
    clean = spec.count - 2 * pairs - broken - structural
    pair_targets = rng.sample(range(targets), pairs)
    # Every target has four files: a pair takes two of its target's, and
    # the slot pool hands each target out at most that often.
    slots = [t for t in range(targets) for _ in range(4)]
    for target in pair_targets:
        slots.remove(target)
        slots.remove(target)
    rng.shuffle(slots)
    entries: List[Tuple[str, int]] = (
        [(PAIR_A, t) for t in pair_targets]
        + [(PAIR_B, t) for t in pair_targets]
        + [(BROKEN, slots.pop()) for _ in range(broken)]
        + [(STRUCTURAL, 0) for _ in range(structural)]
        + [(CLEAN, slots.pop()) for _ in range(clean)]
    )
    rng.shuffle(entries)
    # The "second half" of a pair is the one that arrives later.
    first_seen: Dict[int, int] = {}
    for position, (kind, target) in enumerate(entries):
        if kind not in (PAIR_A, PAIR_B):
            continue
        if target not in first_seen:
            first_seen[target] = position
            entries[position] = (PAIR_A, target)
        else:
            entries[position] = (PAIR_B, target)
    return entries


def mint(workload: str, seed: int, count: Optional[int] = None) -> Fixture:
    """The fixture of ``workload`` under ``seed``.

    ``count`` truncates the stream (tests).
    """
    spec = WORKLOADS[workload]
    synth = SyntheticMonorepo(MONOREPO_SPEC, seed=MONOREPO_SEED)
    files = synth.repo.snapshot().to_dict()
    names = synth.target_names()
    rng = random.Random(seed)
    file_order = {name: rng.sample(range(4), 4) for name in names}
    touches: Dict[str, int] = {}
    tokens: Dict[int, str] = {}
    developers = synth.developers

    def next_source(name: str) -> str:
        used = touches.get(name, 0)
        touches[name] = used + 1
        return synth.graph.target(name).srcs[file_order[name][used]]

    def edit(path: str, suffix: str) -> Patch:
        return Patch.modifying({path: files[path] + suffix}, base={path: files[path]})

    items: List[FixtureItem] = []
    skeleton = _skeleton(spec, len(names))
    if count is not None:
        skeleton = skeleton[:count]
    for position, (kind, target) in enumerate(skeleton):
        name = names[target]
        if kind == CLEAN:
            patch = edit(next_source(name), f"# tweak {rng.getrandbits(30)}\n")
        elif kind == BROKEN:
            patch = edit(next_source(name), "# FAIL:unit_test\n")
        elif kind in (PAIR_A, PAIR_B):
            if target not in tokens:
                tokens[target] = f"tok{rng.getrandbits(30)}"
            patch = edit(next_source(name), f"# CONFLICT:{tokens[target]}\n")
        else:
            index = rng.getrandbits(30)
            package = f"generated/g{index:08x}"
            patch = Patch.adding(
                {
                    f"{package}/src_0.py": (
                        f"# generated module {index}\nVALUE = {index}\n"
                    ),
                    f"{package}/BUILD": (
                        "target(\n"
                        "    name = 'lib',\n"
                        "    srcs = ['src_0.py'],\n"
                        f"    deps = {[names[0]]!r},\n"
                        "    steps = ['compile', 'unit_test'],\n"
                        ")\n"
                    ),
                }
            )
        arrival = 0.0 if spec.gap is None else position * spec.gap
        change = Change(
            change_id=next_change_id(),
            revision_id=next_revision_id(),
            developer=developers[rng.randrange(len(developers))],
            patch=patch,
            submitted_at=arrival,
            description=f"{kind} edit of {name}",
        )
        items.append(FixtureItem(change=change, arrival=arrival, kind=kind))
    return Fixture(workload=workload, seed=seed, files=files, items=items)


# -- CSV wire form (SNIPPETS.md snippet 2) -----------------------------------


def dump_csv(fixture: Fixture, path: str) -> None:
    """Write the arrival stream in the replayable five-column shape.

    ``arrival_offset`` is in simulated minutes; ``body_json`` carries the
    change in the journal's own codec plus the fixture's ground truth.
    The base snapshot is not in the file: it is a function of
    ``MONOREPO_SPEC`` and ``MONOREPO_SEED``.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for item in fixture.items:
            body = {
                "change": encode_change(item.change),
                "kind": item.kind,
                "expect_committed": item.expect_committed,
            }
            writer.writerow(
                (
                    item.change.change_id,
                    repr(item.arrival),
                    "interactive",
                    "mid",
                    json.dumps(body, sort_keys=True, separators=(",", ":")),
                )
            )


def load_csv(path: str) -> List[FixtureItem]:
    """Read a stream written by :func:`dump_csv` back into items."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        items = []
        for request_id, offset, _mode, _priority, body_json in reader:
            body = json.loads(body_json)
            change = decode_change(body["change"])
            if change.change_id != request_id:
                raise ValueError(
                    f"row {request_id!r} carries change {change.change_id!r}"
                )
            items.append(
                FixtureItem(change=change, arrival=float(offset), kind=body["kind"])
            )
        return items
