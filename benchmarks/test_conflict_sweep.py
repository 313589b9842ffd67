"""The conflict sweep at a deep queue: candidates vs. every pending change.

The paper's analyzer exists so a new change is compared only with the
changes it can interact with (section 5.2).  This benchmark measures
that on an 8-island monorepo with 256 pending changes: the full sweep
pair-tests each new change against *every* earlier pending change, the
service's sweep only against the ids
``ConflictAnalyzer.conflict_candidates`` returns.

Acceptance at the deep cell (256 pending, 8 islands): the warm
per-change candidate sweep must be >= 2x faster than the warm full
sweep, ``checks + skipped`` must equal the full sweep's 32,640 pairs,
and a mirrored end-to-end run — the service against a reference service
handed its own analyzer's verdict as ``conflict_predicate``, which is
asked about every pending pair — must land the *same* changes with zero
red commits and a bit-identical state fingerprint: the index buys
latency, never decisions.

A service-path smoke variant always runs (and is the CI gate): the
figure-12 cell must fingerprint identically under both sweeps.  Every
datapoint lands in ``benchmarks/results/BENCH_sweep.json``.
"""

import copy
import os
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.buildsys.executor import BuildContext
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.experiments.runner import format_table
from repro.journal.fingerprint import fingerprint_digest
from repro.parallel import workload
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository
from repro.workload.repo_synth import mint_partitioned_cell

#: The deep cell: pending depth and island count.
PENDING_DEPTH = 256
ISLANDS = 8
#: Acceptance floor: warm candidate sweep vs warm full sweep.
SPEEDUP_FLOOR = 2.0

_SMOKE_ONLY = os.environ.get("SWEEP_BENCH_SMOKE") == "1"


def _mint_deep_cell():
    return mint_partitioned_cell(
        islands=ISLANDS,
        seed=1911,
        count=PENDING_DEPTH,
        layers=(3, 4, 3),
        files_per_target=4,
    )


def _time_sweep(files, changes, indexed):
    """Warm per-change sweep seconds over the full pending set.

    Mirrors the planner's submit path — name the candidates, then extend
    the conflict graph against them — with analyses pre-warmed so the
    timed region isolates the pairwise sweep the full path spends
    O(pending) on.
    """
    analyzer = ConflictAnalyzer(BuildContext.load(dict(files)))
    batch = copy.deepcopy(changes)
    for change in batch:
        analyzer.analyze(change)  # warm the per-change caches
    graph = ConflictGraph(analyzer.conflict)
    pending = []
    started = time.perf_counter()
    for change in batch:
        candidates = (
            analyzer.conflict_candidates(change, pending) if indexed else None
        )
        graph.add(change, candidates)
        pending.append(change)
    wall = time.perf_counter() - started
    return wall, analyzer.stats.checks, analyzer.stats.skipped, graph.edge_count()


def _run_service(files, changes, full_sweep, workers=8):
    """Submit every change, pump to a decision; ``full_sweep`` builds the
    reference, whose predicate is asked about every pending pair."""
    kwargs = {}
    if full_sweep:
        kwargs["conflict_predicate"] = (
            lambda a, b: service._conflict_predicate(a, b)
        )
    service = CoreService(
        Repository(dict(files)),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(workers=workers),
        **kwargs,
    )
    for change in copy.deepcopy(changes):
        service.submit(change)
    decisions = service.pump()
    stats = service.analyzer.stats
    return {
        "fingerprint": fingerprint_digest(service),
        "decisions": tuple((d.change_id, d.committed, d.at) for d in decisions),
        "committed": sum(1 for d in decisions if d.committed),
        "green": all(service.repo.mainline_green_flags()),
        "builds": service.planner.stats.builds_started,
        "checks": stats.checks,
        "skipped": stats.skipped,
    }


@pytest.mark.skipif(
    _SMOKE_ONLY, reason="SWEEP_BENCH_SMOKE=1 runs only the smoke cell"
)
def test_candidate_sweep_speedup_deep_queue():
    """Acceptance: >= 2x warm sweep at 256 pending over 8 islands."""
    files, changes = _mint_deep_cell()
    pairs = len(changes) * (len(changes) - 1) // 2
    full_wall, full_checks, _, full_edges = _time_sweep(files, changes, indexed=False)
    index_wall, index_checks, skipped, index_edges = _time_sweep(
        files, changes, indexed=True
    )
    # Every pair the full sweep tests is either tested or skipped.
    assert full_checks == pairs == 32_640
    assert index_checks + skipped == pairs
    assert index_edges == full_edges
    speedup = full_wall / index_wall if index_wall > 0 else float("inf")
    full_ms = full_wall * 1000.0 / len(changes)
    index_ms = index_wall * 1000.0 / len(changes)

    # The narrowed sweep must be exact, not heuristic: identical runs.
    reference = _run_service(files, changes, full_sweep=True)
    service = _run_service(files, changes, full_sweep=False)
    assert service["fingerprint"] == reference["fingerprint"]
    assert service["decisions"] == reference["decisions"]
    assert service["committed"] == reference["committed"] == len(changes)
    assert service["green"] and reference["green"]
    assert reference["checks"] == pairs and reference["skipped"] == 0
    assert service["checks"] + service["skipped"] == pairs

    record_bench(
        "sweep",
        f"deep_queue_p{PENDING_DEPTH}_i{ISLANDS}",
        {
            "pending": len(changes),
            "islands": ISLANDS,
            "full_per_change_ms": round(full_ms, 4),
            "indexed_per_change_ms": round(index_ms, 4),
            "warm_speedup": round(speedup, 3),
            "full_pair_checks": full_checks,
            "indexed_pair_checks": index_checks,
            "pair_checks_skipped": skipped,
            "landed": service["committed"],
            "red_commits": 0,
            "floor": SPEEDUP_FLOOR,
        },
    )
    emit(
        "conflict_sweep",
        format_table(
            ("sweep", "per-change ms", "pair checks", "landed", "fingerprint"),
            [
                ("full", f"{full_ms:.3f}", full_checks,
                 reference["committed"], reference["fingerprint"][:12]),
                ("candidates", f"{index_ms:.3f}", index_checks,
                 service["committed"], service["fingerprint"][:12]),
            ],
            title=(
                f"conflict sweep @ {len(changes)} pending over {ISLANDS} "
                f"islands ({speedup:.2f}x warm, {skipped} pair checks "
                "skipped, fingerprints identical)"
            ),
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm sweep speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_sweep_fingerprint_smoke():
    """CI cell: figure-12 under the candidate sweep is bit-identical to
    the full sweep."""
    files, changes = workload.mint_cell(seed=7, count=12)
    reference = _run_service(files, changes, full_sweep=True, workers=4)
    service = _run_service(files, changes, full_sweep=False, workers=4)
    record_bench(
        "sweep",
        "smoke_fingerprint",
        {
            "full_fingerprint": reference["fingerprint"],
            "indexed_fingerprint": service["fingerprint"],
            "identical": service["fingerprint"] == reference["fingerprint"],
            "landed": service["committed"],
        },
    )
    emit(
        "conflict_sweep_smoke",
        format_table(
            ("sweep", "landed", "builds", "pair checks", "fingerprint"),
            [
                ("full", reference["committed"], reference["builds"],
                 reference["checks"], reference["fingerprint"][:12]),
                ("candidates", service["committed"], service["builds"],
                 service["checks"], service["fingerprint"][:12]),
            ],
            title="candidate-sweep bit-identity smoke (service path)",
        ),
    )
    assert service["fingerprint"] == reference["fingerprint"]
    assert service["decisions"] == reference["decisions"]
    assert service["committed"] == len(changes)
    assert service["green"]
    assert service["checks"] + service["skipped"] == reference["checks"]
