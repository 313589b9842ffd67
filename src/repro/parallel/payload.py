"""Picklable build-request/response payloads for process dispatch.

A :class:`BuildRequest` carries everything a worker process needs to
execute one speculative build hermetically: the base head (and its
snapshot, so an anonymous pool worker that has never seen that head can
root a :class:`~repro.buildsys.executor.BuildContext` for it), the
assumed stack's patches in merge order, and the subject change's patch.
A :class:`BuildResponse` carries the *raw* step outcomes back — target,
step kind, Algorithm-1 digest, pass/fail, log — deliberately without any
cache provenance: whether a step counts as executed or eliminated is
decided by the parent when it replays the response through its own
:class:`~repro.buildsys.cache.ArtifactCache` in selection order, which is
what keeps parallel execution bit-identical to the serial oracle.

Everything here must survive ``pickle`` round-trips with no loss: only
plain data, frozen dataclasses, and the already-picklable
:class:`~repro.vcs.patch.Patch` value objects — never lambdas, bound
methods, or closures (see ``tests/test_parallel_pickle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.types import ChangeId, CommitId, Path, StepKind, TargetName
from repro.vcs.patch import Patch


@dataclass(frozen=True)
class BuildRequest:
    """One speculative build, serialized for a worker process.

    ``build_id`` correlates the response inside one batch; ``assumed``
    lists the speculated-on changes' patches in merge order (sorted
    change id, matching the serial controller), leaving out those that
    have landed: the base head already holds them.  ``step_wall_seconds``
    models the real wall-clock cost of one executed build step (the
    compile/test subprocess a production worker would actually run);
    zero — the default — makes execution purely synthetic.

    ``traced`` asks the worker to capture per-step wall-clock spans and
    ship them back in ``BuildResponse.step_spans``; the parent's
    recorder keeps them with the dispatching build's ``build_start``
    record, and the trace renders them under that build's span.  False (the default) keeps the worker's fast path
    span-free.
    """

    build_id: int
    change_id: ChangeId
    base_commit_id: CommitId
    base_snapshot: Dict[Path, str]
    assumed: Tuple[Tuple[ChangeId, Patch], ...]
    patch: Patch
    step_wall_seconds: float = 0.0
    traced: bool = False

    def label(self) -> str:
        parts = [cid for cid, _ in self.assumed] + [self.change_id]
        return "B[" + ".".join(parts) + "]"


@dataclass(frozen=True)
class StepRecord:
    """One raw step outcome: identity, digest, verdict — no provenance."""

    target: TargetName
    kind: StepKind
    digest: str
    passed: bool
    log: str = ""


@dataclass(frozen=True)
class WorkerSpan:
    """One wall-clock span a worker captured while executing a request.

    Offsets are seconds relative to the request's ``wall_started`` epoch
    timestamp, so the parent can place the span on a shared wall-clock
    timeline (and map it into simulated time proportionally).  ``kind``
    is the span flavour (``"merge"``, ``"step"``); ``target`` and
    ``step`` identify the build step for ``"step"`` spans and stay empty
    otherwise.
    """

    name: str
    kind: str
    wall_offset: float
    wall_duration: float
    target: TargetName = ""
    step: str = ""


@dataclass(frozen=True)
class BuildResponse:
    """What a worker did for one request.

    ``targets`` and ``steps`` preserve the build order (steps grouped by
    target, truncated at the first failure exactly as the serial
    stop-on-failure path truncates).  ``wall_seconds`` is the worker-side
    wall clock for the whole request — context derivation, step
    evaluation, and the synthetic per-step wall cost.  ``merge_conflict``
    and ``graph_error`` are the two ways a stack fails before any step
    runs — a patch that does not apply, BUILD files that do not load —
    each carrying the exception's message for the parent to turn into the
    same failed build the serial path reports.  ``error`` carries
    a worker-side crash as data so the parent can fail loudly with
    context instead of unpickling a traceback.

    ``wall_started`` (epoch seconds) plus ``step_spans`` reconstruct the
    worker-side timeline when the request was ``traced``; both
    stay empty on untraced requests so the payload cost is zero.
    """

    build_id: int
    change_id: ChangeId
    targets: Tuple[TargetName, ...] = ()
    steps: Tuple[StepRecord, ...] = ()
    merge_conflict: Optional[str] = None
    graph_error: Optional[str] = None
    wall_seconds: float = 0.0
    worker_pid: int = 0
    error: Optional[str] = None
    wall_started: float = 0.0
    step_spans: Tuple[WorkerSpan, ...] = ()
