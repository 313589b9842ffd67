"""Process-parallel speculation builds (ROADMAP item: multi-core scale-out).

Backend selection lives in exactly one place — :func:`create_build_backend`:
callers name a *spec* string, never a concrete class, and everything
upstream of the backend seam (`BuildExecutor`, `WorkerPool`, the planner)
stays backend-agnostic.

Specs:

``"local"``
    Serial in-process execution of the same request/response path the
    worker processes run — the backend seam's correctness oracle.
``"process"`` / ``"process:N"``
    A ``ProcessPoolExecutor`` with ``os.cpu_count()`` (or ``N >= 1``)
    workers.

This package is imported lazily: a service without a backend — and
journal recovery, whatever backend wrote the journal — never touches it
(enforced by dep-hygiene tests), so selecting no backend costs nothing.
"""

from __future__ import annotations

import os

from repro.errors import ParallelExecutionError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.backend import (
    BuildBackend,
    LocalBuildBackend,
    ProcessBuildBackend,
)
from repro.parallel.payload import BuildRequest, BuildResponse, StepRecord
from repro.parallel.worker import execute_request

__all__ = [
    "BuildBackend",
    "BuildRequest",
    "BuildResponse",
    "LocalBuildBackend",
    "ParallelExecutionError",
    "ProcessBuildBackend",
    "StepRecord",
    "create_build_backend",
    "execute_request",
]


def create_build_backend(
    spec: str, *, recorder: Recorder = NULL_RECORDER
) -> BuildBackend:
    """The canonical backend factory — the only component that knows the
    concrete backend classes.  Bad specs raise
    :class:`~repro.errors.ParallelExecutionError`."""
    name, colon, suffix = spec.partition(":")
    name = name.strip().lower()
    if name == "local":
        return LocalBuildBackend(recorder=recorder)
    if name == "process":
        workers = os.cpu_count() or 1
        if colon:
            if not suffix.isdecimal() or int(suffix) < 1:
                raise ParallelExecutionError(
                    f"malformed backend spec {spec!r}: worker count must "
                    "be a positive integer"
                )
            workers = int(suffix)
        return ProcessBuildBackend(workers, recorder=recorder)
    raise ParallelExecutionError(
        f"unknown build backend {spec!r} (expected local or process[:N])"
    )
