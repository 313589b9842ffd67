"""The HTTP observability service: a live window onto a SubmitQueue.

The production SubmitQueue is operated through a Dropwizard REST service
with dashboards over greenness and per-change turnaround (section 3,
figure 3).  This module is the reproduction's equivalent — a stdlib-only
(:mod:`http.server`) front end that mounts the transport-agnostic
:class:`~repro.service.handlers.ApiHandlers` dicts and adds the
read-only operations surface:

* ``GET /healthz``  — liveness plus the headline queue/greenness bits;
* ``GET /metrics``  — Prometheus text from the obs registry;
* ``GET /state``    — queue depth, greenness, per-change status;
* ``GET /slo``      — rolling turnaround p50/p95/p99, speculation hit
  rate, worker utilization (:mod:`repro.obs.slo`);
* ``GET /trace``    — Chrome-trace JSON of the live recorder's trace
  (open spans rendered up to the current sim clock);
* ``GET /queue``, ``GET /mainline``, ``GET /changes/<id>``,
  ``POST /changes``, ``POST /process`` — the ApiHandlers surface;
* ``POST /shutdown`` — stop the server (used by tests and CI smoke).

Every error is the JSON envelope ``{"ok": false, "error": ..., "code":
...}``, a route miss (404) and a verb other than GET/POST (405) included.

The HTTP layer is threaded (:class:`ThreadingHTTPServer`) but a single
lock serializes access to the underlying service: the core service is a
single-threaded state machine, and serializing at that seam is what
keeps every read a consistent snapshot.

Every response — status line, headers and body — leaves in **one**
socket write, from the one place that writes (``_respond``), on a
connection with Nagle's algorithm off.  Written as a header block and
then a body, the second write of a keep-alive connection waits out the
client's delayed ACK: ~40 ms per request, an order of magnitude more
than the service spends computing the answer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs.recorder import Recorder
from repro.obs.tracer import chrome_trace_from_records
from repro.service.api import SubmitQueueService
from repro.service.handlers import ApiHandlers

#: Rolling window the /slo endpoint aggregates over, in simulated minutes.
DEFAULT_SLO_WINDOW_MINUTES = 60.0

#: Largest request body the JSON API will read (1 MiB).
MAX_BODY_BYTES = 1 << 20


class ObservabilityServer:
    """One HTTP server bound to one live :class:`CoreService`."""

    def __init__(
        self,
        core,
        handlers: Optional[ApiHandlers] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        slo_window_minutes: float = DEFAULT_SLO_WINDOW_MINUTES,
    ) -> None:
        self.core = core
        self.recorder = core.recorder
        self.handlers = (
            handlers
            if handlers is not None
            else ApiHandlers(SubmitQueueService(core))
        )
        self.slo_window_minutes = slo_window_minutes
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _RequestHandler)
        self._httpd.context = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> None:
        """Serve from a daemon thread (tests and drivers)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        self._httpd.server_close()

    # -- endpoint payloads ---------------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            return 200, {
                "ok": True,
                "status": "healthy",
                "clock_minutes": self.core.clock.now,
                "pending": self.core.planner.pending_count(),
                "green": self.core.repo.is_green(),
                "tracing": bool(self.recorder.enabled),
            }

    def metrics_text(self) -> Tuple[int, str]:
        with self._lock:
            return 200, self.recorder.prometheus_text()

    def state(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            queue = self.handlers.handle_queue()
            mainline = self.handlers.handle_mainline()
            changes = {
                change_id: self.handlers.handle_status(
                    {"change_id": change_id}
                )["status"]
                for change_id in sorted(self.core.planner.records)
            }
            return 200, {
                "ok": True,
                "clock_minutes": self.core.clock.now,
                "green": mainline["green"],
                "mainline_commits": self.core.repo.mainline_length(),
                "queue": {"depth": queue["depth"], "pending": queue["pending"]},
                "changes": changes,
            }

    def slo(self) -> Tuple[int, Dict[str, Any]]:
        if not self.recorder.enabled:
            return 503, {
                "ok": False,
                "error": "no recorder attached; run with tracing enabled",
            }
        from repro.obs.slo import SloAggregator  # lazy: pulls in numpy

        with self._lock:
            aggregator = SloAggregator(
                self.recorder,
                window_minutes=self.slo_window_minutes,
                worker_capacity=self.core.planner.workers,
            )
            payload = aggregator.snapshot()
        payload["ok"] = True
        return 200, payload

    def trace(self) -> Tuple[int, Dict[str, Any]]:
        if not self.recorder.enabled:
            return 503, {
                "ok": False,
                "error": "no recorder attached; run with tracing enabled",
            }
        with self._lock:
            return 200, chrome_trace_from_records(self.recorder.trace())

    def api(self, name: str, request: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        handler = getattr(self.handlers, f"handle_{name}")
        with self._lock:
            payload = handler(request)
        return int(payload.get("code", 200)), payload

    def handler_error(self, exc: Exception) -> Tuple[int, Dict[str, Any]]:
        """The 500 answer for an exception no handler mapped, counted."""
        with self._lock:
            self.recorder.counter(
                "serve_handler_errors_total",
                "Requests answered 500 because a handler raised.",
            ).inc()
        return 500, {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "code": 500,
        }


class _RequestHandler(BaseHTTPRequestHandler):
    """Route table over the bound :class:`ObservabilityServer`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a body longer than one segment must not wait for the
    #: client's ACK of the first either.
    disable_nagle_algorithm = True
    #: Set once the current request's response has started going out.
    _answering = False

    @property
    def context(self) -> ObservabilityServer:
        return self.server.context  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep smoke-test output clean; curl shows its own status

    def _respond(
        self, code: int, body: bytes, content_type: str, close: bool = False
    ) -> None:
        """Send one whole response in one write — the only place that does."""
        head = [
            f"{self.protocol_version} {code} {self.responses[code][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if code == 405:  # which RFC 9110 requires to name the verbs served
            head.append("Allow: GET, POST")
        if close:
            head.append("Connection: close")
            self.close_connection = True
        self._answering = True
        self.wfile.write("\r\n".join(head + ["", ""]).encode("latin-1") + body)

    def _send_json(
        self, code: int, payload: Dict[str, Any], close: bool = False
    ) -> None:
        self._respond(
            code,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json; charset=utf-8",
            close,
        )

    def _read_body(self) -> Optional[bytes]:
        """The request's body, or ``None`` after answering 4xx."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        refusal = None
        if "Transfer-Encoding" in self.headers:
            # Only a Content-Length body is read; a chunked one would be
            # left on the connection and parsed as the next request.
            refusal = (411, "Transfer-Encoding not supported; send Content-Length")
        elif length < 0:
            refusal = (400, "invalid Content-Length")
        elif length > MAX_BODY_BYTES:
            refusal = (413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if refusal is not None:
            # The body stays unread, so the connection cannot carry
            # another request: answer and close it.
            code, error = refusal
            self._send_json(
                code, {"ok": False, "error": error, "code": code}, close=True
            )
            return None
        return self.rfile.read(length) if length else b""

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or ``None`` after answering 4xx."""
        raw = self._read_body()
        if not raw:
            return None if raw is None else {}
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = None
        if not isinstance(parsed, dict):
            self._send_json(
                400, {"ok": False, "error": "malformed JSON body", "code": 400}
            )
            return None
        return parsed

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._route_post)

    def __getattr__(self, name: str):
        # ``http.server`` answers its own HTML 501 page for a verb without
        # a ``do_<METHOD>`` attribute; give every other verb a JSON 405.
        if name.startswith("do_"):
            return lambda: self._dispatch(self._method_not_allowed)
        raise AttributeError(name)

    def _method_not_allowed(self) -> None:
        # Read the body first, so the connection can carry the next request
        # (not after HEAD, whose client will not read this answer's body).
        if self._read_body() is not None:
            error = f"method {self.command} not allowed"
            payload = {"ok": False, "error": error, "code": 405}
            self._send_json(405, payload, close=self.command == "HEAD")

    def _dispatch(self, route) -> None:
        """Run one route; an exception it does not map itself answers 500.

        Left to ``socketserver`` the exception would print a traceback,
        end the handler thread and drop the keep-alive connection with no
        response at all.  Answering keeps the connection usable: every
        route reads its request body before it calls into the service and
        starts writing only after the call returned.
        """
        self._answering = False
        try:
            route()
        except Exception as exc:  # the boundary: must keep serving
            if self._answering:
                # It failed while writing its answer: a second response
                # behind half of the first would corrupt the stream.
                raise
            self._send_json(*self.context.handler_error(exc))

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        context = self.context
        if path == "/healthz":
            self._send_json(*context.healthz())
        elif path == "/metrics":
            code, text = context.metrics_text()
            self._respond(
                code,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/state":
            self._send_json(*context.state())
        elif path == "/slo":
            self._send_json(*context.slo())
        elif path == "/trace":
            self._send_json(*context.trace())
        elif path == "/queue":
            self._send_json(*context.api("queue", {}))
        elif path == "/mainline":
            self._send_json(*context.api("mainline", {}))
        elif path.startswith("/changes/"):
            change_id = path[len("/changes/"):]
            self._send_json(*context.api("status", {"change_id": change_id}))
        else:
            self._route_miss(path)

    def _route_miss(self, path: str) -> None:
        self._send_json(404, {"ok": False, "error": f"no route {path}", "code": 404})

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        context = self.context
        if path == "/shutdown":
            self._send_json(200, {"ok": True, "status": "shutting down"})
            threading.Thread(target=context.shutdown, daemon=True).start()
            return
        body = self._read_json_body()
        if body is None:
            return
        if path == "/changes":
            self._send_json(*context.api("land", body))
        elif path == "/process":
            self._send_json(*context.api("process", body))
        else:
            self._route_miss(path)


# -- workload builders --------------------------------------------------------


def build_quickstart_service(
    changes: int = 24,
    drafts: int = 4,
    seed: int = 7,
    workers: int = 8,
    backend: Optional[str] = "process:2",
    step_wall_seconds: float = 0.0,
    recorder: Optional[Recorder] = None,
    batching: bool = False,
):
    """A served-ready core service over the figure-12 shaped workload.

    Submits and pumps ``changes`` clean changes (populating the trace,
    metrics, and decision history the read endpoints expose), then
    registers ``drafts`` more as landable drafts so ``POST /changes``
    has something to land.  ``batching`` swaps in the risk-aware
    batching strategy, so ``/slo`` grows its ``batching`` section and
    ``/metrics`` the ``risk_batch_*`` series.  Returns ``(core, handlers)``.
    """
    from repro.parallel.workload import mint_cell
    from repro.predictor.predictors import StaticPredictor
    from repro.service.core import CoreService, CoreServiceConfig
    from repro.vcs.repository import Repository

    predictor = StaticPredictor(success=0.9, conflict=0.05)
    if batching:
        from repro.strategies.risk_batch import RiskBatchStrategy

        strategy = RiskBatchStrategy(predictor)
    else:
        from repro.strategies.submitqueue import SubmitQueueStrategy

        strategy = SubmitQueueStrategy(predictor)
    files, batch = mint_cell(count=changes + drafts, seed=seed)
    recorder = recorder if recorder is not None else Recorder()
    core = CoreService(
        Repository(dict(files)),
        strategy,
        config=CoreServiceConfig(
            workers=workers,
            build_backend=backend,
            step_wall_seconds=step_wall_seconds,
        ),
        recorder=recorder,
    )
    for change in batch[:changes]:
        core.submit(change)
    core.pump()
    handlers = ApiHandlers(SubmitQueueService(core))
    for change in batch[changes:]:
        handlers.register_draft(change)
    return core, handlers


def build_journal_service(journal_dir: str, recorder: Optional[Recorder] = None):
    """Replay a journal into a served-ready core service.

    Recovery runs in verification mode (``attach=False``): the on-disk
    journal is left untouched and the recovered, fully replayed service
    is what the endpoints expose.  Counters exposed from stats fields
    (``planner_builds_started_total`` and the rest of ``PlannerStats``)
    carry the snapshot's restored totals plus the replay; pushed series
    and the trace start at zero and hold only what the replay re-drove.
    Returns ``(core, handlers)``.
    """
    from repro.journal.recovery import recover

    recorder = recorder if recorder is not None else Recorder()
    report = recover(journal_dir, recorder=recorder, attach=False)
    core = report.service
    return core, ApiHandlers(SubmitQueueService(core))
