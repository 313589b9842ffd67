"""The parallel-throughput cell: one figure-12-shaped workload, any backend.

Shared by the CLI demo (``python -m repro parallel``), the wall-clock
benchmark (``benchmarks/test_parallel_throughput.py``), and the oracle
tests: mint the workload *once* with :func:`mint_cell`, then drive
identical copies of it through :func:`run_cell` under different backends
and compare wall clocks — the state fingerprints must match exactly.

Change ids come from a process-global counter, so mirrored runs must
share one minted change list (deep-copied per run; ``Change`` is
mutable) over private copies of one snapshot — exactly what the two
functions provide.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.changes.change import Change
from repro.metrics.summary import RunSummary
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: The figure-12 monorepo shape (the throughput-evaluation workload).
FIGURE12_SPEC = MonorepoSpec(layers=(8, 12, 16, 12, 8), fan_in=2)


def mint_cell(
    seed: int = 23,
    count: int = 16,
    spec: MonorepoSpec = FIGURE12_SPEC,
    stride: int = 3,
) -> Tuple[Dict[str, str], List[Change]]:
    """One workload: the base snapshot plus ``count`` clean changes.

    Returns ``(files, changes)``; every :func:`run_cell` over them sees
    the identical inputs.
    """
    synth = SyntheticMonorepo(spec, seed=seed)
    targets = synth.target_names()
    changes = [
        synth.make_clean_change(
            target_name=targets[(stride * index) % len(targets)],
            submitted_at=0.0,
        )
        for index in range(count)
    ]
    return synth.repo.snapshot().to_dict(), changes


@dataclass(frozen=True)
class CellResult:
    """One backend's run over the minted cell."""

    backend: str
    wall_seconds: float
    fingerprint: str
    decisions: Tuple[Tuple[str, bool, float], ...]
    steps_executed: int
    summary: RunSummary
    mainline_green: bool = True

    @property
    def builds_started(self) -> int:
        return self.summary.builds_started

    @property
    def committed(self) -> int:
        return self.summary.committed

    @property
    def changes_per_hour(self) -> float:
        """Simulated-time landing rate (the paper's figure-12 metric)."""
        return self.summary.throughput_per_hour


def run_cell(
    files: Dict[str, str],
    changes: List[Change],
    backend: Optional[str] = None,
    service_workers: int = 8,
    step_wall_seconds: float = 0.0,
    recorder: Recorder = NULL_RECORDER,
    batching: bool = False,
) -> CellResult:
    """Submit every change, pump to a decision, time the whole cell.

    ``step_wall_seconds`` models the real compile/test subprocess each
    executed step would spawn; with it at zero the cell measures pure
    orchestration overhead instead of build-phase wall clock.

    ``batching`` swaps the plain SubmitQueue strategy for the risk-aware
    batching strategy (same predictor), so mirrored runs compare landing
    rates with everything else held fixed.
    """
    from repro.predictor.predictors import StaticPredictor
    from repro.service.core import CoreService, CoreServiceConfig
    from repro.strategies.submitqueue import SubmitQueueStrategy
    from repro.vcs.repository import Repository

    predictor = StaticPredictor(success=0.9, conflict=0.05)
    if batching:
        from repro.strategies.risk_batch import RiskBatchStrategy

        strategy = RiskBatchStrategy(predictor)
    else:
        strategy = SubmitQueueStrategy(predictor)
    service = CoreService(
        Repository(dict(files)),
        strategy,
        config=CoreServiceConfig(
            workers=service_workers,
            build_backend=backend,
            step_wall_seconds=step_wall_seconds,
        ),
        recorder=recorder,
    )
    batch = copy.deepcopy(changes)
    started = time.perf_counter()
    for change in batch:
        service.submit(change)
    decisions = service.pump()
    wall = time.perf_counter() - started

    from repro.journal.fingerprint import fingerprint_digest

    fingerprint = fingerprint_digest(service)
    stats = service.planner.stats
    summary = RunSummary.from_planner(service.planner, service.clock.now)
    mainline_green = all(service.repo.mainline_green_flags())
    service.close()
    return CellResult(
        backend=backend or "serial",
        wall_seconds=wall,
        fingerprint=fingerprint,
        decisions=tuple(
            (d.change_id, d.committed, d.at) for d in decisions
        ),
        steps_executed=stats.steps_executed,
        summary=summary,
        mainline_green=mainline_green,
    )
