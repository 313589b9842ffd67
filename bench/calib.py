"""The calibration kernel, the pacer that times it, and the order statistics.

Host CPU time on a shared box is not a property of the program alone.
On the authoring machine the same burst read 23 to 39 CPU-ms per change
within half an hour: neighbours come and go (cache, memory bandwidth,
the sibling hyperthread, stolen time the guest books as its own), and
they do so on a scale of tens of milliseconds, so a reference timed
*before and after* a region of a second or more says little about the
machine *during* it (bench/README.md has the numbers).

The pacer therefore times a frozen pure-Python kernel — dict and string
churn and sha256, the operations the pump spends its time in — *while*
the measured code runs: on a second thread beside a pump (the
interpreter lock hands the CPU back and forth every few milliseconds, so
the passes sample the very intervals the program runs in), and in slices
between the requests of the HTTP loop.  A region's CPU time is reported in units
of the passes timed inside it, scaled back to milliseconds by the
kernel's quiet-machine time ``CALIB_REF_MS``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: CPU milliseconds one kernel pass takes on the quiet authoring machine.
#: Frozen: changing it rescales every host-time metric.
CALIB_REF_MS = 21.0
#: The pacer rests this long after each pass, so that the measured code
#: keeps about three quarters of the CPU.
PACER_PAUSE_S = 0.05
#: What the kernel must compute; a different digest means it was edited.
KERNEL_DIGEST = "ddb681eb"
_KERNEL_ROUNDS = 50000


def calibration_kernel(rounds: int = _KERNEL_ROUNDS) -> str:
    """One pass of frozen dict/str/sha256 churn; returns its digest."""
    table: Dict[str, int] = {}
    digest = hashlib.sha256()
    for i in range(rounds):
        key = f"t{i % 613:03d}/src_{i & 3}.py"
        table[key] = table.get(key, 0) + len(key) + (i & 7)
        if not i & 7:
            digest.update(key.encode("utf-8"))
            digest.update(str(table[key]).encode("utf-8"))
    for key in sorted(table):
        digest.update(f"{key}={table[key]}".encode("utf-8"))
    return digest.hexdigest()[:8]


class Pacer:
    """Times the kernel over and over beside the measured code.

    Beside compute-bound code the passes run on a thread of their own
    (:meth:`start` / :meth:`stop`).  Beside latency-sensitive code — the
    HTTP loop, where a pass in flight would hold the interpreter lock a
    request is waiting for — the measured code's own thread calls
    :meth:`timed_pass` between requests instead, a slice of a pass each
    time: the loop idles 40 ms in every request, and only a reference
    that starts as cold as the handler does slows down as much as the
    handler when neighbours have emptied the caches meanwhile.
    """

    def __init__(self, pause_s: float = PACER_PAUSE_S) -> None:
        self.pause_s = pause_s
        #: ``(wall start, wall end, CPU seconds)`` of every finished pass.
        self.passes: List[Tuple[float, float, float]] = []
        self._kernel_intact = True
        self._halt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: CPU of finished threads and of passes run on callers' threads.
        self._settled_cpu = 0.0

    def timed_pass(self, slices: int = 1) -> None:
        """One kernel pass on the calling thread, or one ``slices``-th of it.

        A slice is booked at the CPU time of the whole pass it stands for.
        """
        wall_0, cpu_0 = time.perf_counter(), time.thread_time()
        digest = calibration_kernel(_KERNEL_ROUNDS // slices)
        cpu = time.thread_time() - cpu_0
        self.passes.append((wall_0, time.perf_counter(), cpu * slices))
        if slices == 1 and digest != KERNEL_DIGEST:
            self._kernel_intact = False
        if threading.current_thread() is not self._thread:
            self._settled_cpu += cpu

    def _loop(self) -> None:
        while not self._halt.is_set():
            self.timed_pass()
            self._halt.wait(self.pause_s)
        self._settled_cpu += time.thread_time()

    def start(self) -> None:
        self._halt.clear()
        self._thread = threading.Thread(target=self._loop, name="bench-pacer", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """End the pacer thread (if any) and check the kernel stayed frozen."""
        if self._thread is not None:
            self._halt.set()
            self._thread.join()
            self._thread = None
        if not self._kernel_intact:
            raise RuntimeError(f"calibration kernel no longer computes {KERNEL_DIGEST}")

    def cpu_seconds(self) -> float:
        """CPU spent on calibration so far, to subtract from process CPU."""
        thread = self._thread
        if thread is None:
            return self._settled_cpu
        live = time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        return self._settled_cpu + live

    def pass_ms(self, start: float, end: float) -> float:
        """Mean CPU milliseconds of the passes timed inside a wall window.

        A window too short to hold a whole pass takes the pass nearest
        to its middle instead.
        """
        inside = [cpu for w0, w1, cpu in self.passes if w0 >= start and w1 <= end]
        if not inside:
            middle = (start + end) / 2.0
            inside = [
                min(self.passes, key=lambda p: abs((p[0] + p[1]) / 2.0 - middle))[2]
            ]
        return statistics.fmean(inside) * 1000.0


def normalise(cpu: float, pass_ms: float) -> float:
    """``cpu`` (any unit) rescaled by the kernel pass time beside it."""
    return cpu * CALIB_REF_MS / pass_ms


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
