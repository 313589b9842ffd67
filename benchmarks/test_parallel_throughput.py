"""Parallel-backend throughput: wall-clock build-phase speedup.

Drives the figure-12 cell (``repro.parallel.workload``) once per
backend — serial ``process:1``, ``process:2``, ``process:4`` — with a
real per-step wall cost (each executed step sleeps ``step_wall_seconds``,
modelling the compile/test subprocess it stands in for).  More worker
processes overlap those sleeps; one worker cannot.  Acceptance: >= 2.5x speedup at 4 workers with
*bit-identical* decisions and state fingerprints, which is what makes
the comparison honest — the parallel run does exactly the same builds,
in the same canonical order, and lands the same commits.

A small two-worker smoke variant runs in CI (fast, fingerprint-checked,
no speedup floor — shared runners have unpredictable core budgets);
every datapoint lands in ``benchmarks/results/BENCH_parallel.json``.
"""

import os

import pytest

from benchmarks.conftest import emit, record_bench
from repro.experiments.runner import format_table
from repro.parallel.workload import mint_cell, run_cell
from repro.workload.repo_synth import MonorepoSpec

#: Per-step simulated subprocess cost for the full cell (seconds).
STEP_WALL = 0.01
#: The acceptance floor: process:4 over serial process:1 on the full cell.
SPEEDUP_FLOOR = 2.5

_SMOKE_ONLY = os.environ.get("PARALLEL_BENCH_SMOKE") == "1"


def _table(results):
    serial = results[0].wall_seconds
    rows = [
        (
            r.backend,
            f"{r.wall_seconds:.2f}s",
            f"{serial / r.wall_seconds:.2f}x",
            r.builds_started,
            r.steps_executed,
            r.committed,
            r.fingerprint[:12],
        )
        for r in results
    ]
    return format_table(
        ("backend", "wall", "speedup", "builds", "steps", "landed", "fingerprint"),
        rows,
        title="parallel build-phase throughput (identical decisions per row)",
    )


def _record(name, results):
    serial = results[0].wall_seconds
    for r in results:
        record_bench(
            "parallel",
            f"{name}_{r.backend.replace(':', '_')}",
            {
                "backend": r.backend,
                "wall_seconds": round(r.wall_seconds, 4),
                "speedup_vs_serial": round(serial / r.wall_seconds, 3),
                "builds_started": r.builds_started,
                "steps_executed": r.steps_executed,
                "committed": r.committed,
                "fingerprint": r.fingerprint,
            },
        )


@pytest.mark.skipif(
    _SMOKE_ONLY, reason="PARALLEL_BENCH_SMOKE=1 runs only the smoke cell"
)
def test_parallel_throughput_figure12():
    """Acceptance: >= 2.5x at 4 workers, same decisions, same fingerprint."""
    files, changes = mint_cell(seed=23, count=16)
    results = [
        run_cell(files, changes, backend=backend, step_wall_seconds=STEP_WALL)
        for backend in ("process:1", "process:2", "process:4")
    ]
    emit("parallel_throughput", _table(results))
    _record("figure12", results)

    serial = results[0]
    for parallel in results[1:]:
        assert parallel.fingerprint == serial.fingerprint, parallel.backend
        assert parallel.decisions == serial.decisions, parallel.backend
    assert serial.committed == len(changes)  # all clean changes land

    speedup = serial.wall_seconds / results[-1].wall_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"process:4 speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_parallel_throughput_smoke():
    """CI cell: 2 workers, small repo — fingerprint equality is the gate."""
    files, changes = mint_cell(
        seed=7, count=6, spec=MonorepoSpec(layers=(3, 4, 3), fan_in=2)
    )
    results = [
        run_cell(files, changes, backend=backend, service_workers=4,
                 step_wall_seconds=0.005)
        for backend in ("process:1", "process:2")
    ]
    emit("parallel_throughput_smoke", _table(results))
    _record("smoke", results)
    assert results[1].fingerprint == results[0].fingerprint
    assert results[1].decisions == results[0].decisions
    assert results[0].committed == len(changes)
