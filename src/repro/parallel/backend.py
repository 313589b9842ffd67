"""The process build backend: where a batch of speculation builds runs
when it does not run inline.

One seam, one class: :meth:`ProcessBuildBackend.submit_batch` hands a
batch of picklable :class:`~repro.parallel.payload.BuildRequest` objects
to a ``concurrent.futures.ProcessPoolExecutor`` and returns a token
immediately — the pump loop keeps planning while the work runs.
:meth:`ProcessBuildBackend.collect` blocks on the token in one wait and
returns the batch's :class:`~repro.parallel.payload.BuildResponse`
objects **in request order** — the deterministic quiescent point.
Completion order is nondeterministic; returning responses in request
order is what keeps decisions bit-identical to the serial oracle (no
backend at all: the controller runs the batch inline at dispatch).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import sys
import time
from typing import List, Sequence

from repro.errors import ParallelExecutionError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.payload import BuildRequest, BuildResponse
from repro.parallel.worker import execute_request

#: Bucket bounds for *wall-clock seconds* (the sim-minute defaults are
#: far too coarse for sub-second build requests).
WALL_SECOND_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _BackendMetrics:
    """Hoisted recorder handles.

    Per-worker utilization histograms are labelled by a stable *slot*
    index (pids churn across pool restarts; slots are bounded by
    ``worker_count``, keeping label cardinality fixed).
    """

    __slots__ = ("_recorder", "_backend", "inflight", "batch_seconds", "_busy")

    def __init__(self, recorder: Recorder, backend: str) -> None:
        self._recorder = recorder
        self._backend = backend
        self.inflight = recorder.gauge(
            "executor_parallel_inflight",
            "Build requests currently executing in the backend.",
            labels={"backend": backend},
        )
        self.batch_seconds = recorder.histogram(
            "executor_parallel_batch_seconds",
            "Wall seconds from a batch's submission to its collection.",
            buckets=WALL_SECOND_BUCKETS,
        )
        self._busy: dict = {}

    def observe_busy(self, slot: int, seconds: float) -> None:
        handle = self._busy.get(slot)
        if handle is None:
            handle = self._recorder.histogram(
                "executor_parallel_worker_busy_seconds",
                "Wall seconds one worker process spent on one build request.",
                labels={"backend": self._backend, "worker": str(slot)},
                buckets=WALL_SECOND_BUCKETS,
            )
            self._busy[slot] = handle
        handle.observe(seconds)


class ProcessBuildBackend:
    """Fan-out over a ``ProcessPoolExecutor``.

    The pool is created lazily on the first batch (so merely selecting
    the backend costs nothing) with the ``fork`` start method where the
    platform offers it: workers inherit the loaded module state instead
    of re-importing it, which keeps per-batch dispatch cheap.
    """

    #: Backend name (shows up in metrics labels and CLI tables).
    name = "process"

    def __init__(
        self, workers: int, recorder: Recorder = NULL_RECORDER
    ) -> None:
        if workers < 1:
            raise ValueError("process backend needs at least 1 worker")
        #: Processes the backend keeps busy simultaneously.
        self.worker_count = workers
        self._pool = None
        self._tokens = itertools.count()
        self._slot_by_pid: dict = {}
        #: token -> (futures in request order, request labels, submit wall time)
        self._inflight: dict = {}
        self._metrics = (
            _BackendMetrics(recorder, self.name) if recorder.enabled else None
        )

    def _ensure_pool(self):
        if self._pool is None:
            context = None
            if sys.platform != "win32":
                context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.worker_count, mp_context=context
            )
        return self._pool

    def submit_batch(self, requests: Sequence[BuildRequest]) -> int:
        """Ship the whole batch to the pool *now* and return a token.

        This is where the overlap comes from: the parent keeps accepting
        submissions and planning further epochs while these requests
        execute in worker processes.
        """
        token = next(self._tokens)
        pool = self._ensure_pool()
        futures = [pool.submit(execute_request, request) for request in requests]
        self._inflight[token] = (
            futures,
            [request.label() for request in requests],
            time.perf_counter(),
        )
        if self._metrics is not None:
            self._metrics.inflight.set(self._inflight_count())
        return token

    def _inflight_count(self) -> int:
        return sum(
            1
            for futures, _, _ in self._inflight.values()
            for future in futures
            if not future.done()
        )

    def collect(self, token: int) -> List[BuildResponse]:
        """Block until ``token``'s batch is done; responses in request order."""
        entry = self._inflight.pop(token, None)
        if entry is None:
            raise ParallelExecutionError(f"unknown or already-collected batch token {token}")
        futures, labels, started = entry
        concurrent.futures.wait(futures)
        metrics = self._metrics
        responses: List[BuildResponse] = []
        for future, label in zip(futures, labels):
            try:
                response = future.result()
            except Exception as exc:  # broken pool, unpicklable result
                raise ParallelExecutionError(
                    f"worker process failed for {label}: {exc}"
                ) from exc
            responses.append(response)
            if metrics is not None:
                slot = self._slot_by_pid.setdefault(
                    response.worker_pid, len(self._slot_by_pid)
                )
                metrics.observe_busy(slot, response.wall_seconds)
        if metrics is not None:
            metrics.inflight.set(self._inflight_count())
            metrics.batch_seconds.observe(time.perf_counter() - started)
        return responses

    def close(self) -> None:
        """Release the pool; idempotent.

        Anything still in flight is cancelled so worker processes exit
        cleanly even when a batch was dispatched and never collected.
        """
        for futures, _, _ in self._inflight.values():
            for future in futures:
                future.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessBuildBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
