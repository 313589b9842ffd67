"""The HTTP observability service (`repro.serve`).

Boots a real `ObservabilityServer` on an ephemeral port (in a daemon
thread) and exercises every route with urllib — including the error
paths the smoke job curls: unknown change 404, malformed body 400,
unknown route 404, and the POST /shutdown lifecycle.
"""

import http.client
import io
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.recorder import NULL_RECORDER
from repro.serve import (
    ObservabilityServer,
    _RequestHandler,
    build_journal_service,
    build_quickstart_service,
)

from .make_golden_journal import GOLDEN_DIR

CHANGES = 8
DRAFTS = 2


def _get(url, expect=200):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            code, body = response.status, response.read()
    except urllib.error.HTTPError as exc:
        code, body = exc.code, exc.read()
    assert code == expect, f"{url}: {code} != {expect}: {body!r}"
    return body


def _get_json(url, expect=200):
    return json.loads(_get(url, expect=expect))


def _post_json(url, payload, expect=200):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            code, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        code, raw = exc.code, exc.read()
    assert code == expect, f"POST {url}: {code} != {expect}: {raw!r}"
    return json.loads(raw)


@pytest.fixture(scope="module")
def served():
    core, handlers = build_quickstart_service(
        changes=CHANGES, drafts=DRAFTS, seed=7, workers=4, backend="process:1"
    )
    server = ObservabilityServer(core, handlers=handlers, port=0)
    server.start_background()
    yield server
    server.shutdown()
    server.close()
    core.close()


class TestReadEndpoints:
    def test_healthz(self, served):
        payload = _get_json(f"{served.url}/healthz")
        assert payload["ok"] is True and payload["status"] == "healthy"
        assert payload["tracing"] is True
        assert payload["clock_minutes"] > 0.0
        assert payload["pending"] == 0

    def test_metrics_prometheus_text(self, served):
        body = _get(f"{served.url}/metrics").decode()
        assert "# TYPE" in body
        assert "executor_builds_total" in body
        assert "planner_builds_completed_total" in body

    def test_state(self, served):
        payload = _get_json(f"{served.url}/state")
        assert payload["green"] is True
        assert payload["queue"]["depth"] == 0
        assert len(payload["changes"]) == CHANGES
        for status in payload["changes"].values():
            assert status["state"] in {"committed", "rejected"}

    def test_slo(self, served):
        payload = _get_json(f"{served.url}/slo")
        assert payload["ok"] is True
        decided = (
            payload["decisions"]["committed"] + payload["decisions"]["rejected"]
        )
        assert 0 < decided <= CHANGES
        assert payload["window_minutes"] == served.slo_window_minutes

    def test_trace_is_chrome_shaped(self, served):
        payload = _get_json(f"{served.url}/trace")
        events = payload["traceEvents"]
        assert any(e.get("ph") == "X" and e["name"] == "build" for e in events)
        # A worker process ran traced builds: both clock processes exist.
        assert {e["pid"] for e in events} == {1, 2}

    def test_queue_mainline_and_change_status(self, served):
        assert _get_json(f"{served.url}/queue")["depth"] == 0
        assert _get_json(f"{served.url}/mainline")["green"] is True
        state = _get_json(f"{served.url}/state")
        change_id = sorted(state["changes"])[0]
        status = _get_json(f"{served.url}/changes/{change_id}")
        assert status["ok"] and status["status"]["change_id"] == change_id

    def test_unknown_routes_and_change_404(self, served):
        assert _get_json(f"{served.url}/nope", expect=404)["ok"] is False
        payload = _get_json(f"{served.url}/changes/NOPE", expect=404)
        assert "unknown change" in payload["error"]


class TestWriteEndpoints:
    def test_land_draft_then_process(self, served):
        # Change ids come from a process-global counter: ask the handlers
        # which drafts exist instead of computing the id.
        draft_id = sorted(served.handlers._drafts)[0]
        landed = _post_json(f"{served.url}/changes", {"change_id": draft_id})
        assert landed["ok"] is True
        assert _get_json(f"{served.url}/queue")["depth"] == 1
        processed = _post_json(f"{served.url}/process", {})
        assert processed["decisions"] == 1
        status = _get_json(f"{served.url}/changes/{draft_id}")
        assert status["status"]["state"] in {"committed", "rejected"}

    def test_land_unknown_draft_404(self, served):
        payload = _post_json(
            f"{served.url}/changes", {"change_id": "nope"}, expect=404
        )
        assert "unknown draft" in payload["error"]

    def test_malformed_body_400(self, served):
        payload = _post_json(
            f"{served.url}/changes", b"{not json", expect=400
        )
        assert payload == {
            "ok": False,
            "error": "malformed JSON body",
            "code": 400,
        }
        # A JSON scalar is equally malformed: handlers take objects.
        assert _post_json(f"{served.url}/process", b'"hi"', expect=400)[
            "error"
        ] == "malformed JSON body"

    @pytest.mark.parametrize(
        "length, code",
        [("abc", 400), ("-1", 400), ("12.5", 400), (str(10**12), 413)],
    )
    def test_hostile_content_length_gets_a_json_4xx(self, served, length, code):
        """No body is sent: the server must answer from the header alone
        (not drop the connection, not block reading), then close."""
        conn = http.client.HTTPConnection(served.host, served.port, timeout=5)
        try:
            conn.putrequest("POST", "/process")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == code
            assert response.getheader("Connection") == "close"
            assert payload["ok"] is False and payload["code"] == code
        finally:
            conn.close()
        assert _get_json(f"{served.url}/healthz")["ok"] is True

    def test_chunked_body_is_refused_411_and_closes(self, served):
        """Only a Content-Length body is read.  A chunked body left on the
        connection would parse as the next request: the pipelined GET
        behind it must not be answered from those bytes."""
        chunk = b'{"change_id": "nope"}'
        request = (
            b"POST /changes HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n"
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        with socket.create_connection((served.host, served.port), timeout=5) as sock:
            sock.sendall(request)
            received = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                received += data
        response = http.client.HTTPResponse(_RecordedSocket(received), method="POST")
        response.begin()
        body = response.read()
        assert response.status == 411
        assert response.getheader("Connection") == "close"
        payload = json.loads(body)
        assert payload["ok"] is False and payload["code"] == 411
        # Exactly one response: nothing follows the 411's body.
        assert received.partition(b"\r\n\r\n")[2] == body
        assert _get_json(f"{served.url}/healthz")["ok"] is True

    def test_post_unknown_route_404(self, served):
        assert _post_json(f"{served.url}/nope", {}, expect=404)["ok"] is False


class TestErrorEnvelope:
    """Every error is ``{"ok": false, "error": ..., "code": ...}`` JSON, and
    answering it leaves the keep-alive connection usable."""

    @staticmethod
    def _exchange(conn, method, path, body=None):
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.getheader("Content-Type").startswith("application/json")
        return response, payload

    @pytest.fixture
    def conn(self, served):
        conn = http.client.HTTPConnection(served.host, served.port, timeout=5)
        yield conn
        # The same connection still carries a request after the error.
        response, payload = self._exchange(conn, "GET", "/healthz")
        assert response.status == 200 and payload["ok"] is True
        conn.close()

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("DELETE", "/changes/x", None),
            ("PUT", "/changes", b'{"change_id": "x"}'),
            ("PATCH", "/process", b"{not json"),
        ],
    )
    def test_unsupported_method_is_a_json_405(self, conn, method, path, body):
        response, payload = self._exchange(conn, method, path, body)
        assert response.status == 405
        assert response.getheader("Allow") == "GET, POST"
        assert payload == {
            "ok": False,
            "error": f"method {method} not allowed",
            "code": 405,
        }

    @pytest.mark.parametrize("method, body", [("GET", None), ("POST", b"{}")])
    def test_route_miss_carries_its_code(self, conn, method, body):
        response, payload = self._exchange(conn, method, "/nope", body)
        assert response.status == 404
        assert payload == {"ok": False, "error": "no route /nope", "code": 404}

    @pytest.mark.parametrize("wait", ["no", 1, None])
    def test_non_boolean_wait_is_refused_and_lands_nothing(
        self, served, conn, wait
    ):
        draft_id = sorted(served.handlers._drafts)[-1]
        depth = _get_json(f"{served.url}/queue")["depth"]
        body = json.dumps({"change_id": draft_id, "wait": wait}).encode()
        response, payload = self._exchange(conn, "POST", "/changes", body)
        assert response.status == 400
        assert payload == {
            "ok": False,
            "error": "wait must be a boolean",
            "code": 400,
        }
        # Neither landed nor pumped, and the draft is still there to land.
        assert _get_json(f"{served.url}/queue")["depth"] == depth
        assert draft_id in served.handlers._drafts


class _RecordedSocket:
    """Just enough socket for ``http.client`` to parse recorded bytes."""

    def __init__(self, raw):
        self._raw = raw

    def makefile(self, *args, **kwargs):
        return io.BytesIO(self._raw)


class _RecordingWriter:
    """A handler's ``wfile`` that also keeps each write's bytes."""

    def __init__(self, wfile, recorded):
        self._wfile = wfile
        self._recorded = recorded

    def write(self, data):
        self._recorded.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class TestOneWritePerResponse:
    """Headers and body leave in a single socket write.  Two writes on a
    keep-alive connection cost the client's delayed ACK (~40 ms) each."""

    @pytest.fixture
    def writes(self, monkeypatch):
        """Every ``wfile.write`` any handler makes, in order."""
        recorded = []
        setup = _RequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = _RecordingWriter(handler.wfile, recorded)

        monkeypatch.setattr(_RequestHandler, "setup", recording_setup)
        return recorded

    def test_nagle_is_off_for_bodies_longer_than_a_segment(self):
        assert _RequestHandler.disable_nagle_algorithm is True

    @pytest.mark.parametrize(
        "method, path, body, code",
        [
            ("GET", "/healthz", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/state", None, 200),
            ("GET", "/nope", None, 404),
            ("POST", "/changes", b"{not json", 400),
        ],
    )
    def test_every_answer_is_one_whole_response(
        self, served, writes, method, path, body, code
    ):
        conn = http.client.HTTPConnection(served.host, served.port, timeout=5)
        try:
            conn.request(method, path, body=body)
            received = conn.getresponse()
            received_body = received.read()
        finally:
            conn.close()
        assert received.status == code and received_body
        assert len(writes) == 1
        head, blank_line, sent_body = writes[0].partition(b"\r\n\r\n")
        assert blank_line and sent_body == received_body
        parsed = http.client.HTTPResponse(_RecordedSocket(writes[0]), method=method)
        parsed.begin()
        assert parsed.status == code
        assert int(parsed.getheader("Content-Length")) == len(sent_body)
        assert parsed.read() == sent_body


class TestHandlerErrors:
    """An exception no handler maps answers 500 JSON and costs nothing
    else: not the handler thread, not the keep-alive connection."""

    @staticmethod
    def _request(conn, method, path, body=None):
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()

    @pytest.mark.parametrize(
        "handler, method, path, body, error",
        [
            ("handle_process", "POST", "/process", b"{}",
             "SimulationError: pump wedged"),
            ("handle_queue", "GET", "/queue", None, "KeyError: 'stray'"),
        ],
    )
    def test_raising_handler_answers_500_and_keeps_the_connection(
        self, served, monkeypatch, handler, method, path, body, error
    ):
        from repro.errors import SimulationError

        raised = (
            SimulationError("pump wedged")
            if handler == "handle_process"
            else KeyError("stray")
        )

        def explode(request=None):
            raise raised

        def errors_counted():
            text = _get(f"{served.url}/metrics").decode()
            return sum(
                float(line.split()[-1])
                for line in text.splitlines()
                if line.startswith("serve_handler_errors_total")
            )

        before = errors_counted()
        monkeypatch.setattr(served.handlers, handler, explode)
        conn = http.client.HTTPConnection(served.host, served.port, timeout=5)
        try:
            status, raw = self._request(conn, method, path, body)
            assert status == 500
            assert json.loads(raw) == {"ok": False, "error": error, "code": 500}
            # The *next* request on the same connection is served.
            status, raw = self._request(conn, "GET", "/healthz")
            assert status == 200 and json.loads(raw)["ok"] is True
        finally:
            conn.close()
        assert errors_counted() == before + 1


class TestStalePatchOverHttp:
    def test_post_changes_returns_the_rejection(self):
        """A patch cut before its file moved on mainline, submitted while
        another change is pending, comes back as a decision, not an error."""
        from repro.predictor.predictors import StaticPredictor
        from repro.service.api import SubmitQueueService
        from repro.service.core import CoreService, CoreServiceConfig
        from repro.service.handlers import ApiHandlers
        from repro.strategies.submitqueue import SubmitQueueStrategy
        from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

        synth = SyntheticMonorepo(MonorepoSpec(layers=(3, 4), fan_in=2), seed=7)
        core = CoreService(
            synth.repo,
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.1)),
            config=CoreServiceConfig(workers=4),
        )
        handlers = ApiHandlers(SubmitQueueService(core))
        first, second = synth.target_names(layer=0)[:2]
        landed = synth.make_clean_change(first)
        stale = synth.make_clean_change(first)
        pending = synth.make_clean_change(second)
        for change in (landed, stale, pending):
            handlers.register_draft(change)
        server = ObservabilityServer(core, handlers=handlers, port=0)
        server.start_background()
        try:
            url = f"{server.url}/changes"
            assert _post_json(url, {"change_id": landed.change_id, "wait": True})[
                "status"
            ]["state"] == "committed"
            assert _post_json(url, {"change_id": pending.change_id})["ok"] is True
            decided = _post_json(url, {"change_id": stale.change_id, "wait": True})
            assert decided["ok"] is True
            assert decided["status"]["state"] == "rejected"
            assert decided["status"]["reason"].startswith("merge conflict")
            status = _get_json(f"{server.url}/changes/{pending.change_id}")
            assert status["status"]["state"] == "committed"
        finally:
            server.shutdown()
            server.close()
            core.close()


class TestLifecycleAndWorkloads:
    def test_post_shutdown_stops_the_server(self):
        core, handlers = build_quickstart_service(
            changes=2, drafts=0, seed=9, workers=2, backend=None
        )
        server = ObservabilityServer(core, handlers=handlers, port=0)
        server.start_background()
        try:
            payload = _post_json(f"{server.url}/shutdown", {})
            assert payload["status"] == "shutting down"
            # Shutdown is handed to a helper thread so the response can
            # flush first; wait for the serving thread to wind down.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                thread = server._thread
                if thread is None or not thread.is_alive():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("server thread still alive after POST /shutdown")
        finally:
            server.shutdown()
            server.close()
            core.close()

    def test_slo_and_trace_503_without_recorder(self):
        core, handlers = build_quickstart_service(
            changes=2, drafts=0, seed=9, workers=2, backend=None,
            recorder=NULL_RECORDER,
        )
        server = ObservabilityServer(core, handlers=handlers, port=0)
        server.start_background()
        try:
            assert _get_json(f"{server.url}/healthz")["tracing"] is False
            assert _get_json(f"{server.url}/slo", expect=503)["ok"] is False
            assert _get_json(f"{server.url}/trace", expect=503)["ok"] is False
        finally:
            server.shutdown()
            server.close()
            core.close()

    def test_batching_workload_surfaces_slo_section_and_metrics(self):
        core, handlers = build_quickstart_service(
            changes=12, drafts=0, seed=5, workers=4, backend=None,
            batching=True,
        )
        server = ObservabilityServer(
            core, handlers=handlers, port=0, slo_window_minutes=1e9
        )
        server.start_background()
        try:
            slo = _get_json(f"{server.url}/slo")
            assert slo["batching"]["batches_landed"] >= 1
            assert slo["batching"]["members_committed"] >= 2
            metrics = _get(f"{server.url}/metrics").decode()
            assert "risk_batches_landed_total" in metrics
            state = _get_json(f"{server.url}/state")
            assert state["green"] is True
        finally:
            server.shutdown()
            server.close()
            core.close()

    def test_journal_replay_workload(self):
        core, handlers = build_journal_service(GOLDEN_DIR)
        server = ObservabilityServer(core, handlers=handlers, port=0)
        server.start_background()
        try:
            health = _get_json(f"{server.url}/healthz")
            assert health["ok"] is True and health["tracing"] is True
            state = _get_json(f"{server.url}/state")
            assert state["changes"], "replay must surface the journal's changes"
            assert state["mainline_commits"] == core.repo.mainline_length()
        finally:
            server.shutdown()
            server.close()
            core.close()
