"""Exception hierarchy for the SubmitQueue reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at the service boundary.  Subsystems define
narrower types below so tests and callers can assert on precise failure
modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class VcsError(ReproError):
    """Base class for version-control errors."""


class UnknownCommitError(VcsError):
    """A commit id was not found in the repository."""


class UnknownFileError(VcsError):
    """A file path was not found in a snapshot."""


class PatchConflictError(VcsError):
    """A patch could not be applied because of a textual conflict."""

    def __init__(self, path: str, reason: str = "") -> None:
        self.path = path
        self.reason = reason
        message = f"patch conflicts at {path!r}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class BuildSystemError(ReproError):
    """Base class for build-system errors."""


class BuildFileError(BuildSystemError):
    """A BUILD file could not be parsed."""


class UnknownTargetError(BuildSystemError):
    """A target name was not found in the build graph."""


class DependencyCycleError(BuildSystemError):
    """The target graph contains a dependency cycle."""

    def __init__(self, cycle: list) -> None:
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(map(str, self.cycle)))


class ChangeError(ReproError):
    """Base class for change-lifecycle errors."""


class UnknownChangeError(ChangeError):
    """A change id was not found."""


class DuplicateChangeError(ChangeError):
    """A change id the service already holds was submitted again."""

    def __init__(self, change_id: str) -> None:
        self.change_id = change_id
        super().__init__(
            f"change {change_id} is already queued, pending or decided"
        )


class IllegalTransitionError(ChangeError):
    """A change-state transition violated the lifecycle state machine."""

    def __init__(self, current, requested) -> None:
        self.current = current
        self.requested = requested
        super().__init__(f"illegal change transition {current} -> {requested}")


class PlannerError(ReproError):
    """Base class for planner/build-controller errors."""


class NoWorkerAvailableError(PlannerError):
    """A build was dispatched while every worker was busy."""


class PredictorError(ReproError):
    """Base class for prediction-model errors."""


class NotFittedError(PredictorError):
    """A learned model was used before being trained."""


class SimulationError(ReproError):
    """Base class for discrete-event-simulation errors."""


class ClockError(SimulationError):
    """Simulated time would move backwards."""


class WorkloadError(ReproError):
    """Base class for workload-generation errors."""


class JournalError(ReproError):
    """Base class for durable-journal errors."""


class JournalCorruptError(JournalError):
    """A journal file is structurally invalid (bad CRC, bad JSON, unknown
    schema version, or a malformed record in the interior of the log).

    A *torn final record* — the partially written tail a crash leaves —
    is not corruption; recovery silently truncates to the last valid
    prefix instead of raising this.
    """

    def __init__(self, message: str, line: "int | None" = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class JournalReplayError(JournalError):
    """Replay diverged from the journal.

    Raised when re-driving the journaled inputs makes the service emit a
    record that differs from the journaled one (or skip one entirely) —
    the deterministic-replay contract is broken and the recovered state
    cannot be trusted.
    """


class ParallelExecutionError(ReproError):
    """A parallel build backend failed outside the build semantics.

    Covers malformed backend specs, broken worker pools, and worker-side
    crashes (which workers report as data, never as raw tracebacks).
    Build-semantic failures — failing steps, merge conflicts — are *not*
    errors; they come back as ordinary failed ``BuildExecution`` results,
    exactly as the serial path reports them.
    """


class ObservabilityError(ReproError):
    """Base class for metrics/tracing errors."""


class MetricsError(ObservabilityError):
    """A metric was registered or updated inconsistently."""


class TraceError(ObservabilityError):
    """A trace file or span operation was malformed."""
