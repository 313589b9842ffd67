"""Worker-process side of parallel speculation builds.

:func:`execute_request` is the single entrypoint a pool worker runs.  It
is deliberately a *top-level function over picklable data* — process
dispatch pickles ``(fn, request)``, so nothing here may be a lambda, a
bound method, or a closure.

Workers are **stateless step executors**: each request is evaluated
hermetically against its own merged snapshot, every step in the affected
delta is run by the serial path's own step loop (``build_between`` over
an empty cache, stopped at the first failure), and the raw outcomes go
back to the parent.  No artifact-cache state crosses requests in a
worker — step elimination is applied exactly once, deterministically,
when the parent replays the response through its own
:class:`~repro.buildsys.cache.ArtifactCache` in selection order.  What
workers *do* keep between requests is pure, outcome-neutral CPU state:
the current base head's memoized :class:`BuildContext` root and the
content-addressed target digests it hashes through.  Each request folds
its stack onto that root with the same
:meth:`~repro.buildsys.executor.BuildContext.derive_stack` the serial
controller calls (contexts are value holders; step results are functions
of the merged snapshot alone, so cache warmth can never change an
outcome — only how fast it is computed).

``step_wall_seconds`` models the real wall cost of one hermetic step
(the compile/test subprocess a production CI worker would spawn) as a
sleep.  Sleeps release the GIL and overlap perfectly across processes,
which is what the throughput benchmark measures.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Tuple

from repro.buildsys.executor import BuildContext, BuildExecutor
from repro.buildsys.hashing import DigestMemo
from repro.errors import BuildSystemError, PatchConflictError
from repro.parallel.payload import BuildRequest, BuildResponse, StepRecord, WorkerSpan
from repro.types import CommitId

#: The one memoized root context and the base head it is for (the
#: mainline only moves forward, as in the serial controller).
_base: Tuple[Optional[CommitId], Optional[BuildContext]] = (None, None)

#: Target digests shared by every context of this process; a generation
#: ends each time a new base head is loaded (mirrors the serial
#: controller's memo, which rotates as the base advances).
_digest_memo = DigestMemo()


def reset_worker_state() -> None:
    """Drop the memoized context (test isolation; never required)."""
    global _base
    _base = (None, None)


def _base_context(request: BuildRequest) -> BuildContext:
    global _base
    commit_id, context = _base
    if commit_id != request.base_commit_id:
        _digest_memo.rotate()
        context = BuildContext.load(request.base_snapshot, _digest_memo)
        _base = (request.base_commit_id, context)
    return context


def execute_request(request: BuildRequest) -> BuildResponse:
    """Run one speculative build hermetically; never raises.

    Any exception other than a merge conflict or a stack whose BUILD
    files do not load — both ordinary failed builds — is returned as
    ``BuildResponse.error`` so the parent can fail with context instead
    of a half-unpicklable traceback from the pool.
    """
    started = time.perf_counter()
    wall_started = time.time()
    tracing = request.traced
    spans: List[WorkerSpan] = []

    def _span(name: str, kind: str, begin: float, target: str = "", step: str = "") -> None:
        if tracing:
            end = time.perf_counter() - started
            spans.append(
                WorkerSpan(
                    name=name,
                    kind=kind,
                    wall_offset=begin,
                    wall_duration=max(0.0, end - begin),
                    target=target,
                    step=step,
                )
            )

    try:
        merge_begin = time.perf_counter() - started
        base = _base_context(request)
        unbuildable = {}
        try:
            # ``request.assumed`` arrives sorted by change id — the serial
            # controller's fold order — so a conflict surfaces at the same
            # patch with the same message.
            merged = base.derive_stack(
                [patch for _, patch in request.assumed] + [request.patch]
            )
        except PatchConflictError as exc:
            unbuildable = {"merge_conflict": str(exc)}
        except BuildSystemError as exc:
            unbuildable = {"graph_error": str(exc)}
        _span("merge", "merge", merge_begin)
        if unbuildable:
            return BuildResponse(
                build_id=request.build_id,
                change_id=request.change_id,
                wall_seconds=time.perf_counter() - started,
                worker_pid=os.getpid(),
                wall_started=wall_started if tracing else 0.0,
                step_spans=tuple(spans),
                **unbuildable,
            )
        # A fresh executor per request: its empty cache eliminates nothing,
        # so every step of the delta is run, up to the first failure.
        report = BuildExecutor().build_between(base, merged, stop_on_failure=True)
        steps: List[StepRecord] = []
        for result in report.results:
            step_begin = time.perf_counter() - started
            name, kind = result.spec.target, result.spec.kind
            steps.append(
                StepRecord(
                    target=name,
                    kind=kind,
                    digest=merged.hashes[name],
                    passed=result.passed,
                    log=result.log,
                )
            )
            # The synthetic wall cost is paid step by step, so each
            # recorded span covers its own step's wall time.
            if request.step_wall_seconds > 0.0:
                time.sleep(request.step_wall_seconds)
            _span(f"{name}:{kind.value}", "step", step_begin, name, kind.value)
        return BuildResponse(
            build_id=request.build_id,
            change_id=request.change_id,
            targets=tuple(report.targets_built),
            steps=tuple(steps),
            wall_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
            wall_started=wall_started if tracing else 0.0,
            step_spans=tuple(spans),
        )
    except Exception as exc:  # pragma: no cover - defensive: crash as data
        return BuildResponse(
            build_id=request.build_id,
            change_id=request.change_id,
            wall_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
            error=f"{type(exc).__name__}: {exc}",
        )
