"""Ground-truth checks: every way one repeat of a workload can fail.

Each function returns a list of human-readable failures; an empty list
means the outputs are correct.  Failures are counted against the
operations attempted (changes plus HTTP requests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from bench.fixtures import FixtureItem


def check_decisions(
    items: Sequence[FixtureItem],
    decided: Dict[str, bool],
    green_flags: Sequence[bool],
) -> List[str]:
    """``decided`` maps change id to committed; ``green_flags`` is mainline's."""
    failures = []
    for item in items:
        change_id = item.change.change_id
        if change_id not in decided:
            failures.append(f"{change_id} ({item.kind}) was never decided")
        elif decided[change_id] != item.expect_committed:
            verdict = "committed" if decided[change_id] else "rejected"
            failures.append(f"{change_id} ({item.kind}) was {verdict}")
    for index, green in enumerate(green_flags):
        if not green:
            failures.append(f"mainline commit {index} is red")
    return failures


def check_responses(responses: Sequence[Tuple[str, int]]) -> List[str]:
    """``responses`` are ``(request line, status)`` as the client saw them."""
    return [
        f"{request} answered {status}"
        for request, status in responses
        if status != 200
    ]


def check_recovery(live_digest: str, recovered_digest: Optional[str]) -> List[str]:
    if recovered_digest != live_digest:
        return [
            f"recovered fingerprint {recovered_digest} != live {live_digest}"
        ]
    return []
