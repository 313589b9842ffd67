"""JSON request handlers: the RESTful surface of the API service.

The production API service is a stateless Dropwizard app exposing "landing
a change, and getting the state of a change" (section 7.1) plus a web UI.
This module is its transport-agnostic twin: pure functions from JSON-able
request dicts to JSON-able response dicts, so any HTTP server (or a test)
can mount them without this package importing networking code.

Endpoints:

* ``POST /changes``        -> :meth:`ApiHandlers.handle_land`
* ``GET  /changes/<id>``   -> :meth:`ApiHandlers.handle_status`
* ``GET  /queue``          -> :meth:`ApiHandlers.handle_queue`
* ``GET  /mainline``       -> :meth:`ApiHandlers.handle_mainline`
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReproError, UnknownChangeError
from repro.service.api import ChangeStatus, SubmitQueueService


def _status_payload(status: ChangeStatus) -> Dict[str, Any]:
    return {
        "change_id": status.change_id,
        "state": status.state.value,
        "reason": status.reason,
        "enqueued_at": status.enqueued_at,
        "decided_at": status.decided_at,
        "turnaround_minutes": status.turnaround,
        "speculations": {
            "succeeded": status.speculations_succeeded,
            "failed": status.speculations_failed,
        },
        "builds": {
            "scheduled": status.builds_scheduled,
            "aborted": status.builds_aborted,
        },
    }


class ApiHandlers:
    """JSON-in/JSON-out handlers over a :class:`SubmitQueueService`."""

    def __init__(self, service: SubmitQueueService) -> None:
        self._service = service
        #: Changes must be constructed by the caller (changes carry patch
        #: objects); land requests reference pre-registered drafts.
        self._drafts: Dict[str, Any] = {}

    # -- draft registration (the "create change" of Figure 3) ---------------

    def register_draft(self, change) -> str:
        """Make a change submittable by id (review flow step 1-4)."""
        self._drafts[change.change_id] = change
        return change.change_id

    # -- endpoints -----------------------------------------------------------

    def handle_land(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /changes`` with ``{"change_id": ..., "wait": bool}``."""
        change_id = request.get("change_id")
        if not isinstance(change_id, str):
            return {"ok": False, "error": "change_id required", "code": 400}
        wait = request.get("wait", False)
        if not isinstance(wait, bool):
            return {"ok": False, "error": "wait must be a boolean", "code": 400}
        change = self._drafts.pop(change_id, None)
        if change is None:
            return {"ok": False, "error": f"unknown draft {change_id}", "code": 404}
        try:
            status = self._service.land_change(change, wait=wait)
        except ReproError as exc:
            return {"ok": False, "error": str(exc), "code": 500}
        return {"ok": True, "code": 200, "status": _status_payload(status)}

    def handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``GET /changes/<id>`` with ``{"change_id": ...}``."""
        change_id = request.get("change_id")
        if not isinstance(change_id, str):
            return {"ok": False, "error": "change_id required", "code": 400}
        try:
            status = self._service.status(change_id)
        except UnknownChangeError:
            return {"ok": False, "error": f"unknown change {change_id}", "code": 404}
        return {"ok": True, "code": 200, "status": _status_payload(status)}

    def handle_queue(self, request: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """``GET /queue``: depth and pending ids in order."""
        return {
            "ok": True,
            "code": 200,
            "depth": self._service.queue_depth(),
            "pending": self._service.pending_ids(),
        }

    def handle_mainline(
        self, request: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """``GET /mainline``: the headline health bit."""
        return {
            "ok": True,
            "code": 200,
            "green": self._service.mainline_is_green(),
        }

    def handle_process(
        self, request: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """``POST /process``: drive the queue until idle (test/demo hook)."""
        decisions = self._service.process()
        return {"ok": True, "code": 200, "decisions": decisions}

