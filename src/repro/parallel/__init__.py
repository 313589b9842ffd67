"""Process-parallel speculation builds (ROADMAP item: multi-core scale-out).

A batch runs in exactly one of two places: in-process at dispatch (no
backend — the serial oracle) or on a :class:`ProcessBuildBackend`.
Backend selection lives in exactly one place — :func:`create_build_backend`:
callers name a *spec* string, never the class, and everything upstream of
the backend seam (`BuildExecutor`, the planner) stays
backend-agnostic.

Spec grammar: ``"process"`` / ``"process:N"`` — a ``ProcessPoolExecutor``
with ``os.cpu_count()`` (or ``N >= 1``) workers.  ``process:1`` is the
serial baseline that still pays the worker round trip.

This package is imported lazily: a service without a backend — and
journal recovery, whatever backend wrote the journal — never touches it
(enforced by dep-hygiene tests), so selecting no backend costs nothing.
"""

from __future__ import annotations

import os

from repro.errors import ParallelExecutionError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.backend import ProcessBuildBackend
from repro.parallel.payload import BuildRequest, BuildResponse, StepRecord
from repro.parallel.worker import execute_request

__all__ = [
    "BuildRequest",
    "BuildResponse",
    "ParallelExecutionError",
    "ProcessBuildBackend",
    "StepRecord",
    "create_build_backend",
    "execute_request",
]


def create_build_backend(
    spec: str, *, recorder: Recorder = NULL_RECORDER
) -> ProcessBuildBackend:
    """The canonical backend factory — the only component that knows the
    backend class.  Bad specs raise
    :class:`~repro.errors.ParallelExecutionError`."""
    name, colon, suffix = spec.partition(":")
    if name.strip().lower() != "process":
        raise ParallelExecutionError(
            f"unknown build backend {spec!r} (expected process[:N])"
        )
    workers = os.cpu_count() or 1
    if colon:
        if not suffix.isdecimal() or int(suffix) < 1:
            raise ParallelExecutionError(
                f"malformed backend spec {spec!r}: worker count must "
                "be a positive integer"
            )
        workers = int(suffix)
    return ProcessBuildBackend(workers, recorder=recorder)
