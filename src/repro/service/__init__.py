"""The SubmitQueue service facade (paper section 7.1).

Mirrors the production API service: land a change, query its state, and
watch the queue — a thin, stateless layer over the core service wiring.
"""

from repro.service.api import ChangeStatus, SubmitQueueService
from repro.service.core import CoreService, CoreServiceConfig
from repro.service.handlers import ApiHandlers

__all__ = [
    "ApiHandlers",
    "ChangeStatus",
    "CoreService",
    "CoreServiceConfig",
    "SubmitQueueService",
]
