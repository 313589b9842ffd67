"""Changes, revisions, developers, lifecycle tracking, and the pending queue.

A *change* is the unit SubmitQueue serializes: a code patch plus the build
steps that must succeed before the patch may merge (paper section 3.1).
A change's ``revision_id`` names the revision a developer iterates on;
each submit attempt is a new change in it.
"""

from repro.changes.change import Change, Developer, GroundTruth
from repro.changes.state import ChangeLedger, ChangeRecord
from repro.changes.queue import PendingQueue

__all__ = [
    "Change",
    "ChangeLedger",
    "ChangeRecord",
    "Developer",
    "GroundTruth",
    "PendingQueue",
]
