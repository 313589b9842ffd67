"""Changes, revisions, developers and lifecycle tracking.

A *change* is the unit SubmitQueue serializes: a code patch plus the build
steps that must succeed before the patch may merge (paper section 3.1).
A change's ``revision_id`` names the revision a developer iterates on;
each submit attempt is a new change in it.  The pending queue is the
planner's conflict graph (:mod:`repro.conflict.conflict_graph`).
"""

from repro.changes.change import Change, Developer, GroundTruth
from repro.changes.state import ChangeRecord

__all__ = [
    "Change",
    "ChangeRecord",
    "Developer",
    "GroundTruth",
]
