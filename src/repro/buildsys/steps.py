"""Synthetic build steps driven by in-source directives.

Real compilers and test runners are replaced by two directives planted in
source content, which is what lets the workload layer mint changes with
*known* ground truth (section 8's evaluation needs individually-broken and
really-conflicting changes on demand):

``# FAIL:<step>``
    The owning target fails exactly that step kind (e.g. ``unit_test``).

``# CONFLICT:<token>``
    One occurrence visible to a target is harmless; two or more occurrences
    of the *same* token in its transitive source closure fail its test
    steps.  A pair of changes each planting one occurrence thus passes
    individually and fails combined — a real semantic conflict with no
    textual overlap.

Compile and artifact steps are not conflict-sensitive: a conflict is two
changes that each build but whose *combination* breaks tests.

Sources are scanned where they change, not where they are built: a
:class:`DirectiveSummaries` holds what each target's *own* sources say,
and :func:`evaluate_entries` — the one evaluator, which
:func:`evaluate_target` spells as a list — reads every step result of a
target off it.  A passing step's result is built once per target
declaration and shared by every digest the target ever has.  A target's
closure count is the sum of the per-target counts over the *set*
``{target} | transitive_deps``: a source two targets list counts once for
each of them, a target reached along both sides of a diamond counts once
(so the counts are not folded dependencies-first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target
from repro.types import Path, StepKind, TargetName

FAIL_DIRECTIVE = re.compile(r"#\s*FAIL:([A-Za-z_]+)")
CONFLICT_DIRECTIVE = re.compile(r"#\s*CONFLICT:([^\s#]+)")

#: Step kinds that two combined CONFLICT tokens break.
CONFLICT_SENSITIVE_STEPS = frozenset(
    {StepKind.UNIT_TEST, StepKind.INTEGRATION_TEST, StepKind.UI_TEST}
)


@dataclass(frozen=True)
class StepSpec:
    """Identity of one build step: which target, which kind."""

    target: TargetName
    kind: StepKind


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step: pass/fail, a log line, and cache provenance."""

    spec: StepSpec
    passed: bool
    log: str = ""
    cached: bool = False


def scan_directives(
    sources: Iterable[str],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Count FAIL and CONFLICT directives across source contents.

    Returns ``(fails, conflicts)``: step-name -> occurrences and
    conflict-token -> occurrences.
    """
    fails: Dict[str, int] = {}
    conflicts: Dict[str, int] = {}
    for text in sources:
        # Few sources carry either word; ``in`` is far cheaper than a regex.
        if "FAIL:" in text:
            for match in FAIL_DIRECTIVE.finditer(text):
                step = match.group(1)
                fails[step] = fails.get(step, 0) + 1
        if "CONFLICT:" in text:
            for match in CONFLICT_DIRECTIVE.finditer(text):
                token = match.group(1)
                conflicts[token] = conflicts.get(token, 0) + 1
    return fails, conflicts


class DirectiveSummaries(NamedTuple):
    """What the own sources of a graph's targets say.

    ``by_target`` maps a name to ``(step names FAILed, (token, occurrences)
    pairs)`` and is sparse: a target without a directive has no entry.
    ``token_bearers`` names the targets with a CONFLICT token, so an
    evaluation walks no closure when nobody bears one.
    """

    by_target: Dict[TargetName, Tuple[FrozenSet[str], Tuple[Tuple[str, int], ...]]]
    token_bearers: FrozenSet[TargetName]


def summarize(
    targets: Iterable[Target],
    snapshot: Mapping[Path, str],
    prior: DirectiveSummaries = DirectiveSummaries({}, frozenset()),
    gone: Iterable[TargetName] = (),
) -> DirectiveSummaries:
    """``prior`` with ``targets`` re-read from ``snapshot`` and without the
    ``gone`` ones (targets the graph lost); ``prior`` itself when nothing
    moved.  Costs the targets named: ``prior`` is compared entry by entry
    and copied only when one moved."""
    held = prior.by_target
    moved = {name: None for name in gone if name in held}
    for target in targets:
        fails, conflicts = scan_directives(
            [snapshot.get(path, "") for path in target.srcs]
        )
        summary = None
        if fails or conflicts:
            summary = (frozenset(fails), tuple(conflicts.items()))
        if held.get(target.name) != summary:
            moved[target.name] = summary
    if not moved:
        return prior
    by_target, bearers = dict(held), set(prior.token_bearers)
    for name, summary in moved.items():
        if summary is None:
            del by_target[name]
        else:
            by_target[name] = summary
        if summary is not None and summary[1]:
            bearers.add(name)
        else:
            bearers.discard(name)
    return DirectiveSummaries(by_target, frozenset(bearers))


def step_entry(
    name: TargetName, kind: StepKind, passed: bool, verdict: str
) -> Tuple[StepResult, StepResult]:
    """One step's result in both spellings the artifact cache stores: as
    run, and marked ``cached`` as a hit returns it."""
    spec = StepSpec(name, kind)
    log = f"{name} {kind.value}: {verdict}"
    return StepResult(spec, passed, log), StepResult(spec, passed, log, True)


def evaluate_entries(
    graph: BuildGraph,
    target: Target,
    summaries: DirectiveSummaries,
) -> Sequence[Tuple[StepResult, StepResult]]:
    """Run every step of ``target`` hermetically, in ``target.steps``
    order, as :func:`step_entry` pairs the executor stores in the artifact
    cache as they are.

    FAIL directives act on the target's *own* sources; CONFLICT tokens are
    counted over the transitive dependency closure, because a conflict
    between a dependency's change and a dependent's change only surfaces
    when the dependent's tests see both.  A passing step's pair is the
    target's own :attr:`~repro.buildsys.target.Target.passing_entries`,
    built once per declaration; only a failing step allocates.  With no
    FAIL directive and no colliding token the target's tuple itself is
    returned.
    """
    name = target.name
    passing = target.passing_entries
    failing = summaries.by_target.get(name, ((),))[0]
    colliding = ""
    bearers = summaries.token_bearers
    if bearers and not CONFLICT_SENSITIVE_STEPS.isdisjoint(target.steps):
        closure = graph.transitive_deps(name)
        closure.add(name)
        counts: Dict[str, int] = {}
        for bearer in bearers & closure:
            for token, count in summaries.by_target[bearer][1]:
                counts[token] = counts.get(token, 0) + count
        colliding = ", ".join(sorted(t for t, c in counts.items() if c >= 2))
    if not failing and not colliding:
        return passing
    run = []
    for kind, entry in zip(target.steps, passing):
        step = kind.value
        if step in failing:
            entry = step_entry(name, kind, False, f"FAIL:{step} directive present")
        elif colliding and kind in CONFLICT_SENSITIVE_STEPS:
            entry = step_entry(name, kind, False, "conflicting tokens " + colliding)
        run.append(entry)
    return run


def evaluate_target(
    graph: BuildGraph,
    target: Target,
    summaries: DirectiveSummaries,
) -> List[StepResult]:
    """:func:`evaluate_entries` as a list of the as-run results."""
    return [result for result, _cached in evaluate_entries(graph, target, summaries)]


def evaluate_step(
    graph: BuildGraph, target: Target, kind: StepKind, snapshot: Mapping[Path, str]
) -> StepResult:
    """One step of one target, declared or not: :func:`evaluate_target` of
    the target with ``kind`` for its steps, over summaries scanned here."""
    closure = [graph.target(dep) for dep in graph.transitive_deps(target.name)]
    summaries = summarize([target] + closure, snapshot)
    return evaluate_target(graph, replace(target, steps=(kind,)), summaries)[0]
