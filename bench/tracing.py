"""Spans recorded from outside the program, around its layer entry points.

The traced worker replaces each entry point listed in :data:`ENTRY_POINTS`
with a wrapper that records one span per call — name, layer, parent,
wall and thread-CPU edges, an identifier where the arguments carry one —
in memory.  Nothing under ``src/`` changes; module-level functions are
patched in every ``repro`` module that imported them by name.

A span's self time is its duration minus the durations of its direct
children, so the self times under a root add up to the root's duration
exactly and the per-layer sums reconcile to the roots by construction.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span field positions (spans are lists: cheap to make, mutable to close).
NAME, LAYER, PARENT, IDENT, WALL0, WALL1, CPU0, CPU1, THREAD = range(9)


def _first_change_id(args) -> Optional[str]:
    return getattr(args[1], "change_id", None) if len(args) > 1 else None


def _http_request(args) -> str:
    return f"{args[0].command} {args[0].path}"


#: ``(module, owner class or None, attribute, span name, ident extractor)``.
#: The span name is ``<layer>.<operation>``; per-layer metric names derive
#: from it (``<name>_calls``, ``<name>_self_ms``).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.service.core", "CoreService", "submit", "service.submit", _first_change_id),
    ("repro.service.core", "CoreService", "enqueue", "service.enqueue", _first_change_id),
    ("repro.service.core", "CoreService", "pump", "service.pump", None),
    ("repro.planner.planner", "PlannerEngine", "plan", "planner.plan", None),
    ("repro.planner.planner", "PlannerEngine", "complete", "planner.complete", _first_change_id),
    ("repro.planner.controller", "FullStackBuildController", "execute_batch", "planner.execute", None),
    ("repro.planner.controller", "FullStackBuildController", "on_commit", "planner.on_commit", _first_change_id),
    ("repro.conflict.analyzer", "ConflictAnalyzer", "analyze", "conflict.analyze", _first_change_id),
    ("repro.conflict.analyzer", "ConflictAnalyzer", "conflict", "conflict.pair", _first_change_id),
    ("repro.conflict.analyzer", "ConflictAnalyzer", "advance_base", "conflict.advance_base", None),
    ("repro.conflict.conflict_graph", "ConflictGraph", "add", "conflict.graph_add", _first_change_id),
    ("repro.speculation.engine", "SpeculationEngine", "select_builds", "speculation.select", None),
    ("repro.speculation.engine", "SpeculationEngine", "commit_probabilities", "speculation.commit_prob", None),
    ("repro.buildsys.executor", "BuildContext", "load", "buildsys.load", None),
    ("repro.buildsys.executor", "BuildContext", "derive", "buildsys.derive", None),
    ("repro.buildsys.hashing", None, "incremental_hashes", "buildsys.hash", None),
    ("repro.buildsys.executor", "BuildExecutor", "build_between", "buildsys.exec", None),
    ("repro.vcs.repository", "Repository", "commit_to_mainline", "vcs.commit", None),
    ("repro.vcs.patch", "Patch", "apply", "vcs.patch_apply", None),
    ("repro.journal.sink", "JournalWriter", "append", "journal.append", None),
    ("repro.journal.sink", "JournalWriter", "maybe_snapshot", "journal.snapshot", None),
    ("repro.journal.recovery", None, "recover", "journal.recover", None),
    ("repro.obs.recorder", "Recorder", "start_span", "obs.emit", None),
    ("repro.obs.recorder", "Recorder", "finish_span", "obs.emit", None),
    ("repro.obs.recorder", "Recorder", "event", "obs.emit", None),
    ("repro.obs.recorder", "Recorder", "prometheus_text", "obs.metrics_read", None),
    ("repro.obs.slo", "SloAggregator", "snapshot", "obs.slo_read", None),
    ("repro.serve", "_RequestHandler", "do_GET", "serve.request", _http_request),
    ("repro.serve", "_RequestHandler", "do_POST", "serve.request", _http_request),
    ("repro.serve", "ObservabilityServer", "healthz", "serve.endpoint", None),
    ("repro.serve", "ObservabilityServer", "metrics_text", "serve.endpoint", None),
    ("repro.serve", "ObservabilityServer", "state", "serve.endpoint", None),
    ("repro.serve", "ObservabilityServer", "slo", "serve.endpoint", None),
    ("repro.serve", "ObservabilityServer", "api", "serve.endpoint", None),
)


class SpanLog:
    """In-memory span records with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str, ident: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, local = self.spans, self._local
        layer = name.split(".", 1)[0]
        wall, cpu, thread = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [
                name,
                layer,
                stack[-1] if stack else None,
                ident(args) if ident is not None else None,
                wall(),
                0.0,
                cpu(),
                0.0,
                thread(),
            ]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[CPU1] = cpu()
                span[WALL1] = wall()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(
        self, spans: Optional[Sequence[list]] = None
    ) -> List[Tuple[list, float, float]]:
        """``(span, self wall s, self CPU s)`` for ``spans`` (default: all).

        Children are subtracted from their direct parent only, whether or
        not the parent is in ``spans``.
        """
        child_wall: Dict[int, float] = {}
        child_cpu: Dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                key = id(parent)
                child_wall[key] = child_wall.get(key, 0.0) + span[WALL1] - span[WALL0]
                child_cpu[key] = child_cpu.get(key, 0.0) + span[CPU1] - span[CPU0]
        chosen = self.spans if spans is None else spans
        return [
            (
                span,
                span[WALL1] - span[WALL0] - child_wall.get(id(span), 0.0),
                span[CPU1] - span[CPU0] - child_cpu.get(id(span), 0.0),
            )
            for span in chosen
        ]

    def window(self, start: float, end: float) -> List[list]:
        """Spans that started inside the wall-clock window."""
        return [s for s in self.spans if start <= s[WALL0] <= end]

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome ``traceEvents`` JSON (complete events, microseconds)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((s[WALL0] for s in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[LAYER],
                    "ph": "X",
                    "pid": 1,
                    "tid": span[THREAD],
                    "ts": (span[WALL0] - origin) * 1e6,
                    "dur": (span[WALL1] - span[WALL0]) * 1e6,
                    "args": {
                        "span": index,
                        "parent": None if parent is None else ids[id(parent)],
                        "id": span[IDENT],
                        "cpu_us": (span[CPU1] - span[CPU0]) * 1e6,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass
class SpanTotals:
    """Calls and self time of one span name (or one layer)."""

    calls: int = 0
    self_wall_s: float = 0.0
    self_cpu_s: float = 0.0


def totals_by(
    rows: Iterable[Tuple[list, float, float]], field: int
) -> Dict[str, SpanTotals]:
    """Fold ``self_times`` rows by span ``NAME`` or ``LAYER``."""
    table: Dict[str, SpanTotals] = {}
    for span, self_wall, self_cpu in rows:
        entry = table.setdefault(span[field], SpanTotals())
        entry.calls += 1
        entry.self_wall_s += self_wall
        entry.self_cpu_s += self_cpu
    return table


def root_seconds(spans: Sequence[list]) -> Tuple[float, float]:
    """Summed ``(wall, CPU)`` duration of the parentless spans."""
    roots = [s for s in spans if s[PARENT] is None]
    return (
        sum(s[WALL1] - s[WALL0] for s in roots),
        sum(s[CPU1] - s[CPU0] for s in roots),
    )


def install(log: SpanLog) -> List[Tuple[object, str, object]]:
    """Patch every entry point; returns what :func:`uninstall` needs."""
    import importlib

    undo: List[Tuple[object, str, object]] = []
    for module_name, owner_name, attr, name, ident in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attr)
            wrapper = log.wrap(original, name, ident)
            for other in list(sys.modules.values()):
                if (
                    other is not None
                    and getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original
                ):
                    undo.append((other, attr, original))
                    setattr(other, attr, wrapper)
            continue
        owner = getattr(module, owner_name)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(log.wrap(original.__func__, name, ident))
        else:
            wrapper = log.wrap(original, name, ident)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
