"""Build backends: where a batch of speculation builds physically runs.

Exactly one seam: :meth:`BuildBackend.submit_batch` hands a batch of
picklable :class:`~repro.parallel.payload.BuildRequest` objects to the
backend and returns a token immediately — the pump loop keeps planning
while the work runs.  :meth:`BuildBackend.collect` blocks on a
token and returns the batch's
:class:`~repro.parallel.payload.BuildResponse` objects **in request
order** — the deterministic quiescent point.  Everything upstream
(`BuildExecutor`, `WorkerPool`, the planner) is backend-agnostic; only
:func:`repro.parallel.create_build_backend` knows the concrete classes.

* :class:`LocalBuildBackend` — runs each request inline on the calling
  thread, at collection.  The serial correctness oracle.
* :class:`ProcessBuildBackend` — fans requests out to a
  ``concurrent.futures.ProcessPoolExecutor``.  Completion order is
  nondeterministic; responses are *collected* as they land (so the
  parent can overlap useful work via ``idle_hook``) but *returned*
  sorted back into request order, which is what keeps decisions
  bit-identical to the serial oracle.
"""

from __future__ import annotations

import abc
import sys
import time
from typing import Callable, List, Optional, Sequence

from repro.errors import ParallelExecutionError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.payload import BuildRequest, BuildResponse
from repro.parallel.worker import execute_request

#: How long ``collect`` waits on the pool before giving the idle hook
#: another turn (seconds).  Purely a latency/overlap knob — results are
#: re-ordered at the end, so the value can never affect behaviour.
IDLE_POLL_SECONDS = 0.002

#: Bucket bounds for *wall-clock seconds* (the sim-minute defaults are
#: far too coarse for sub-second build requests).
WALL_SECOND_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _BackendMetrics:
    """Hoisted recorder handles shared by both backends.

    Per-worker utilization histograms are labelled by a stable *slot*
    index (pids churn across pool restarts; slots are bounded by
    ``worker_count``, keeping label cardinality fixed).
    """

    __slots__ = ("_recorder", "_backend", "dispatched", "inflight", "batch_seconds", "_busy")

    def __init__(self, recorder: Recorder, backend: str) -> None:
        self._recorder = recorder
        self._backend = backend
        self.dispatched = recorder.counter(
            "executor_parallel_dispatched_total",
            "Build requests handed to a build backend.",
            labels={"backend": backend},
        )
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


class BuildBackend(abc.ABC):
    """Where build requests physically execute."""

    #: Human-readable backend name (shows up in metrics labels and CLI).
    name: str = "abstract"
    #: Processes the backend can keep busy simultaneously (1 = serial).
    worker_count: int = 1

    def __init__(self) -> None:
        self._next_token = 0

    def _new_token(self) -> int:
        token = self._next_token
        self._next_token += 1
        return token

    @abc.abstractmethod
    def submit_batch(self, requests: Sequence[BuildRequest]) -> int:
        """Hand a batch over for execution; return a token immediately."""

    @abc.abstractmethod
    def collect(
        self,
        token: int,
        idle_hook: Optional[Callable[[], None]] = None,
    ) -> List[BuildResponse]:
        """Block until ``token``'s batch is done; responses in *request order*.

        ``idle_hook`` is called repeatedly while the backend waits on
        remote work — the parent's chance to overlap pump-loop work
        (e.g. warming conflict analyses for queued submissions).  Hooks
        must be outcome-neutral: nothing they do may change what the
        batch returns.
        """

    def close(self) -> None:
        """Release pool resources; idempotent."""

    def __enter__(self) -> "BuildBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalBuildBackend(BuildBackend):
    """Inline execution on the calling thread — the serial oracle.

    ``submit_batch`` merely parks the requests; they execute inside
    ``collect``.
    """

    name = "local"
    worker_count = 1

    def __init__(self, recorder: Recorder = NULL_RECORDER) -> None:
        super().__init__()
        self._parked: dict = {}
        self._metrics = (
            _BackendMetrics(recorder, self.name) if recorder.enabled else None
        )

    def submit_batch(self, requests: Sequence[BuildRequest]) -> int:
        token = self._new_token()
        self._parked[token] = list(requests)
        return token

    def collect(
        self,
        token: int,
        idle_hook: Optional[Callable[[], None]] = None,
    ) -> List[BuildResponse]:
        requests = self._parked.pop(token, None)
        if requests is None:
            raise ParallelExecutionError(
                f"unknown or already-collected batch token {token}"
            )
        started = time.perf_counter()
        metrics = self._metrics
        responses: List[BuildResponse] = []
        for request in requests:
            if metrics is not None:
                metrics.dispatched.inc()
                metrics.inflight.set(1)
            response = execute_request(request)
            responses.append(response)
            if metrics is not None:
                metrics.inflight.set(0)
                metrics.observe_busy(0, response.wall_seconds)
        if metrics is not None:
            metrics.batch_seconds.observe(time.perf_counter() - started)
        return responses


class ProcessBuildBackend(BuildBackend):
    """Fan-out over a ``ProcessPoolExecutor``.

    The pool is created lazily on the first batch (so merely selecting
    the backend costs nothing) with the ``fork`` start method where the
    platform offers it: workers inherit the loaded module state instead
    of re-importing it, which keeps per-batch dispatch cheap.
    """

    name = "process"

    def __init__(
        self, workers: int, recorder: Recorder = NULL_RECORDER
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("process backend needs at least 1 worker")
        self.worker_count = workers
        self._pool = None
        self._slot_by_pid: dict = {}
        #: token -> (futures-by-position dict, request labels, submit wall time)
        self._inflight: dict = {}
        self._metrics = (
            _BackendMetrics(recorder, self.name) if recorder.enabled else None
        )

    def _ensure_pool(self):
        if self._pool is None:
            import concurrent.futures
            import multiprocessing

            context = None
            if sys.platform != "win32":
                context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.worker_count, mp_context=context
            )
        return self._pool

    def submit_batch(self, requests: Sequence[BuildRequest]) -> int:
        """Ship the whole batch to the pool *now* and return immediately.

        This is where the overlap comes from: the parent keeps accepting
        submissions and planning further epochs while these requests
        execute in worker processes.
        """
        token = self._new_token()
        pool = self._ensure_pool()
        metrics = self._metrics
        futures = {}
        for position, request in enumerate(requests):
            futures[pool.submit(execute_request, request)] = position
            if metrics is not None:
                metrics.dispatched.inc()
        self._inflight[token] = (
            futures,
            [request.label() for request in requests],
            time.perf_counter(),
        )
        if metrics is not None:
            metrics.inflight.set(self._inflight_count())
        return token

    def _inflight_count(self) -> int:
        return sum(
            1
            for futures, _, _ in self._inflight.values()
            for future in futures
            if not future.done()
        )

    def collect(
        self,
        token: int,
        idle_hook: Optional[Callable[[], None]] = None,
    ) -> List[BuildResponse]:
        import concurrent.futures

        entry = self._inflight.pop(token, None)
        if entry is None:
            raise ParallelExecutionError(f"unknown or already-collected batch token {token}")
        futures, labels, started = entry
        metrics = self._metrics
        ordered: List[Optional[BuildResponse]] = [None] * len(labels)
        pending = set(futures)
        while pending:
            done, pending = concurrent.futures.wait(
                pending,
                timeout=IDLE_POLL_SECONDS if idle_hook is not None else None,
            )
            for future in done:
                position = futures[future]
                try:
                    response = future.result()
                except Exception as exc:  # broken pool, unpicklable result
                    raise ParallelExecutionError(
                        f"worker process failed for {labels[position]}: {exc}"
                    ) from exc
                ordered[position] = response
                if metrics is not None:
                    slot = self._slot_by_pid.setdefault(
                        response.worker_pid, len(self._slot_by_pid)
                    )
                    metrics.observe_busy(slot, response.wall_seconds)
            if metrics is not None:
                metrics.inflight.set(self._inflight_count() + len(pending))
            if idle_hook is not None and pending:
                idle_hook()
        if metrics is not None:
            metrics.batch_seconds.observe(time.perf_counter() - started)
        return [response for response in ordered if response is not None]

    def close(self) -> None:
        # Drain anything still in flight so worker processes exit cleanly
        # even when a batch was dispatched and never collected.
        for futures, _, _ in self._inflight.values():
            for future in futures:
                future.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
