"""Section 5.2: how often changes alter build-graph structure.

The paper measures that only 7.9 % of iOS and 1.6 % of backend changes
change the build graph, which is what makes the conflict analyzer's
name-intersection fast path profitable.  This experiment measures the
fast-path rate both in label mode (workload statistics) and full-stack
(real analyzer over a synthetic monorepo with a mix of content-only and
structural changes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.buildsys.executor import BuildContext
from repro.conflict.analyzer import ConflictAnalyzer
from repro.experiments.runner import format_table
from repro.workload.generator import WorkloadGenerator
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo
from repro.workload.scenarios import BACKEND_WORKLOAD, IOS_WORKLOAD


@dataclass
class StabilityResult:
    label_rates: Dict[str, float]
    fullstack_structural_rate: float
    fullstack_fast_path_rate: float
    checks: int


PAPER_RATES = {"ios": 0.079, "backend": 0.016}


def run(
    label_samples: int = 3000,
    fullstack_changes: int = 24,
    structural_fraction: float = 0.15,
    seed: int = 52,
) -> StabilityResult:
    # Label mode: rate straight from the generators.
    label_rates: Dict[str, float] = {}
    for name, config in (("ios", IOS_WORKLOAD), ("backend", BACKEND_WORKLOAD)):
        generator = WorkloadGenerator(replace(config, seed=seed))
        history = generator.history(label_samples)
        label_rates[name] = sum(
            1 for c in history
            if c.ground_truth is not None and c.ground_truth.changes_build_graph
        ) / len(history)

    # Full-stack: run the real analyzer over a mixed batch of changes.
    # The structural count is deterministic (exactly the requested
    # fraction), so the fast-path rate is a measurement, not a coin flip.
    monorepo = SyntheticMonorepo(MonorepoSpec(layers=(6, 10, 14), fan_in=2), seed=seed)
    analyzer = ConflictAnalyzer(
        BuildContext.load(monorepo.repo.snapshot().to_dict())
    )
    structural = max(1, int(round(structural_fraction * fullstack_changes)))
    changes = [monorepo.make_structural_change() for _ in range(structural)]
    changes.extend(
        monorepo.make_clean_change()
        for _ in range(fullstack_changes - structural)
    )
    for i, first in enumerate(changes):
        for second in changes[i + 1 :]:
            analyzer.conflict(first, second)
    stats = analyzer.stats
    return StabilityResult(
        label_rates=label_rates,
        fullstack_structural_rate=structural / fullstack_changes,
        fullstack_fast_path_rate=stats.fast_path_rate,
        checks=stats.checks,
    )


def format_result(result: StabilityResult) -> str:
    rows = [
        ["iOS structural-change rate (label)", f"{result.label_rates['ios']:.3f}",
         f"paper {PAPER_RATES['ios']:.3f}"],
        ["backend structural-change rate (label)",
         f"{result.label_rates['backend']:.3f}", f"paper {PAPER_RATES['backend']:.3f}"],
        ["full-stack structural fraction", f"{result.fullstack_structural_rate:.3f}",
         "-"],
        ["full-stack fast-path rate", f"{result.fullstack_fast_path_rate:.3f}",
         f"over {result.checks} pair checks"],
    ]
    return format_table(
        ["metric", "measured", "reference"],
        rows,
        title="Section 5.2: build-graph stability and analyzer fast path",
    )
