"""Exact Python call counts of the timed region, rolled up by package.

``cProfile`` counts every Python-level and builtin call; with a fixed
``PYTHONHASHSEED`` the total repeats bit for bit across processes, which
makes it the one cost metric a noisy host cannot blur.  The profile
covers the program's threads only: the worker enables it around the
in-process driver (or ``recover``) and, for the served workload, in each
HTTP handler thread — never around the benchmark's own HTTP client and
never in the accept loop, whose poll count depends on wall time.
"""

from __future__ import annotations

import cProfile
import os
import sys
import threading
from typing import Dict, List

#: Roll-up buckets that are packages or modules directly under ``repro``.
REPRO_BUCKETS = (
    "service", "planner", "conflict", "speculation", "strategies", "predictor",
    "buildsys", "vcs", "changes", "journal", "obs", "serve", "sim",
)
#: Every bucket, in report order; ``other`` is the rest of ``repro`` and
#: the benchmark's own frames, ``stdlib`` every other Python file.
BUCKETS = REPRO_BUCKETS + ("stdlib", "builtins", "other")


class CallCounter:
    """One ``cProfile.Profile`` per profiled thread, summed at the end."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []

    def start_here(self) -> cProfile.Profile:
        profile = cProfile.Profile()
        self._profiles.append(profile)
        profile.enable()
        return profile

    def hook_new_threads(self) -> None:
        """Profile every thread started from now on, from its first frame."""

        def bootstrap(frame, event, arg):
            sys.setprofile(None)
            self.start_here()

        threading.setprofile(bootstrap)

    def unhook_new_threads(self) -> None:
        threading.setprofile(None)

    def rollup(self, repro_root: str, bench_root: str) -> Dict[str, int]:
        """Calls per bucket; the values sum to the total call count."""
        counts = dict.fromkeys(BUCKETS, 0)
        for profile in self._profiles:
            for entry in profile.getstats():
                bucket = bucket_of(entry.code, repro_root, bench_root)
                counts[bucket] += entry.callcount
        return counts


def bucket_of(code, repro_root: str, bench_root: str) -> str:
    """The roll-up bucket of one profiler entry's code."""
    if isinstance(code, str):
        return "builtins"  # C functions are reported by description
    filename = code.co_filename
    prefix = repro_root.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        head = filename[len(prefix):].split(os.sep, 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return head if head in REPRO_BUCKETS else "other"
    if filename.startswith(bench_root.rstrip(os.sep) + os.sep):
        return "other"
    return "stdlib"
