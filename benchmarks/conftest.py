"""Shared benchmark plumbing.

Each benchmark module reproduces one paper figure: it runs the experiment
(sized to finish on a laptop), prints the same rows/series the paper
plots via :func:`emit`, asserts the *shape* invariants (who wins, by
roughly what factor, monotonicity), and times a representative kernel
with pytest-benchmark.

Every emitted table is also written to ``benchmarks/results/<name>.txt``
so EXPERIMENTS.md can reference the latest run.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import platform

import pytest

from repro.changes import change as change_module

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Tables emitted during this session, replayed in the terminal summary
#: (pytest captures ordinary prints; the summary is always visible).
_EMITTED = []

#: Machine-readable datapoints recorded this session, by suite then
#: kernel; merged into ``benchmarks/results/BENCH_<suite>.json`` at
#: session end.  Suites (the scale-out cells ``bench/`` cannot express):
#: ``parallel`` (process-pool wall speedup), ``batch`` (risk batching
#: changes/hour), ``sweep`` (candidate vs. full conflict sweep latency +
#: fingerprint smoke).
_BENCH: dict = {}


#: First change-id number of each module that mints from its own
#: sequence: blocks far above the shared one, so every id stays unique in
#: the process (ground truth and predictors memoise by id).
_CHANGE_ID_BLOCKS = {"test_ablations": 10_000_001, "test_batch_throughput": 20_000_001}


@pytest.fixture(scope="module")
def module_change_ids(request):
    """Mint the module's change ids from its own block.

    Ids order every id tie-break and name the changes a fingerprint
    covers, so a table minted from the shared sequence would depend on
    which tests ran earlier in the process.
    """
    name = request.module.__name__.rsplit(".", 1)[-1]
    saved = change_module._change_counter
    change_module._change_counter = itertools.count(_CHANGE_ID_BLOCKS[name])
    yield
    change_module._change_counter = saved


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _EMITTED.append(text)


def record_bench(suite: str, kernel: str, payload: dict) -> None:
    """Record one datapoint for ``BENCH_<suite>.json``."""
    _BENCH.setdefault(suite, {})[kernel] = payload


def _merge_bench_json(suite: str, kernels: dict) -> None:
    """Fold this session's kernels into the suite's existing file.

    Kernels this session did not run keep their last recorded values, so
    a smoke run (one kernel) never erases the full-run series.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{suite}.json"
    merged = {}
    if path.exists():
        merged = json.loads(path.read_text()).get("kernels", {})
    merged.update(kernels)
    document = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": merged,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def pytest_sessionfinish(session, exitstatus):
    for suite, kernels in _BENCH.items():
        _merge_bench_json(suite, kernels)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _EMITTED:
        return
    terminalreporter.section("paper figure reproductions (paper vs measured)")
    for text in _EMITTED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def trained_predictor():
    """A learned predictor trained once per benchmark session (section 7.2)."""
    from dataclasses import replace

    from repro.predictor.training import train_models
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import IOS_WORKLOAD

    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=4321))
    history = generator.history(4000)
    predictor, report = train_models(history, seed=11)
    return predictor, report
