"""One repeat of one workload in a fresh interpreter.

``python -m bench.worker --workload W --seed S --mode plain|traced|profiled``
starts the calibration pacer, sets a service up cold, drives the timed
region, checks every output against the fixture's ground truth and
prints one JSON object with the raw readings.
The orchestrator (:mod:`bench.run`) starts workers one at a time and
folds their readings into the named metrics.

Set-up (measured as ``setup_s``) is everything a user pays before the
first change can be submitted: importing the program, minting the
fixture, constructing ``Repository`` and ``CoreService`` (graph load and
the full target hash), and for the served workload opening the journal
and the HTTP server.  There is no warm-up: each process meets the timed
region with cold caches, which is what a restarted service does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from bench.calib import Pacer, percentile

#: Changes landed per ``POST /process`` in the served workload.
SERVED_BATCH = 16
#: Of each served batch, every n-th change's status is read back.
SERVED_STATUS_STRIDE = 4
SERVED_READS = ("/state", "/slo", "/metrics", "/healthz")
#: After every served request the client times one slice of a calibration
#: pass, this many to the pass.  (Across quiet and noisy spells a whole pass
#: after every fifth request read 4.3 to 5.9 ms per change, a fifth of a
#: pass after every request 4.0 to 4.7; bench/README.md.)
SERVED_PASS_SLICES = 5
#: After an in-process region: status reads of the first changes plus these,
#: over one keep-alive connection, so every workload has an HTTP latency.
PROBE_STATUS_READS = 8
PROBE_READS = ("/state", "/healthz", "/queue", "/mainline")


def read_cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def pin_to_one_cpu() -> None:
    """Keep every thread of this worker on one CPU.

    The pacer can only stand in for the machine the pump sees if both run
    on the same core; free to migrate, they drift onto different ones as
    soon as anything else in the VM is busy.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})
    except (AttributeError, OSError):
        pass  # no affinity control here: measure unpinned


class Session:
    """A cold service over one fixture, plus whatever the workload attaches."""

    def __init__(self, spec, fixture, workdir: str, gap: Optional[float]) -> None:
        from repro.predictor.predictors import StaticPredictor
        from repro.service.core import CoreService, CoreServiceConfig
        from repro.strategies.submitqueue import SubmitQueueStrategy
        from repro.vcs.repository import Repository

        from bench.fixtures import SERVICE_WORKERS

        self.spec = spec
        self.items = fixture.items
        self.gap = spec.gap if gap is None else gap
        self.journal_dir: Optional[str] = None
        self.writer = None
        self.server = None
        self.connection = None
        self.responses: List[Tuple[str, int, float, str]] = []
        self.between_requests = None
        self.recovery = None
        recorder_kwargs = {}
        journal = None
        if spec.served:
            from repro.journal.sink import JournalWriter
            from repro.obs.recorder import Recorder

            self.journal_dir = os.path.join(workdir, "journal")
            shutil.rmtree(self.journal_dir, ignore_errors=True)
            recorder = Recorder()
            journal = self.writer = JournalWriter(self.journal_dir, recorder=recorder)
            recorder_kwargs = {"recorder": recorder}
        self.service = CoreService(
            Repository(dict(fixture.files)),
            SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
            config=CoreServiceConfig(workers=SERVICE_WORKERS, journal=journal),
            **recorder_kwargs,
        )

    def open_server(self, drafts=()) -> None:
        """Mount the HTTP surface (``drafts`` landable by id) and open the
        one keep-alive connection."""
        import http.client

        from repro.serve import ObservabilityServer
        from repro.service.api import SubmitQueueService
        from repro.service.handlers import ApiHandlers

        handlers = ApiHandlers(SubmitQueueService(self.service))
        for item in drafts:
            handlers.register_draft(item.change)
        self.server = ObservabilityServer(self.service, handlers)
        self.server.start_background()
        self.connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=60.0
        )

    # -- the timed regions ---------------------------------------------------

    def drive_in_process(self) -> None:
        service = self.service
        if self.gap is None:
            for item in self.items:
                service.submit(item.change)
        else:
            for position, item in enumerate(self.items):
                service.enqueue(item.change, at=position * self.gap)
        service.pump()

    def _call(self, kind: str, method: str, path: str, body=None) -> None:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        response.read()
        elapsed = (time.perf_counter() - started) * 1000.0
        self.responses.append((f"{method} {path}", response.status, elapsed, kind))
        if self.between_requests is not None:
            self.between_requests()

    def drive_requests(self, between_requests=None) -> None:
        """The closed loop: one client, one connection, one request at a time.

        ``between_requests`` is called after each response has been read
        and timed (the calibration slice).
        """
        self.between_requests = between_requests
        for start in range(0, len(self.items), SERVED_BATCH):
            batch = self.items[start : start + SERVED_BATCH]
            for item in batch:
                self._call(
                    "land", "POST", "/changes",
                    {"change_id": item.change.change_id, "wait": False},
                )
            self._call("process", "POST", "/process", {})
            for item in batch[::SERVED_STATUS_STRIDE]:
                self._call("read", "GET", f"/changes/{item.change.change_id}")
            for path in SERVED_READS:
                self._call("read", "GET", path)
        self.between_requests = None

    def probe_reads(self) -> None:
        """Read-only requests against the pumped service (outside the region)."""
        self.open_server()
        for item in self.items[:PROBE_STATUS_READS]:
            self._call("read", "GET", f"/changes/{item.change.change_id}")
        for path in PROBE_READS:
            self._call("read", "GET", path)

    def drive_recovery(self) -> None:
        import repro.journal.recovery as recovery

        self.recovery = recovery.recover(self.journal_dir, attach=False)

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.close()
            # Handler threads end once they see the closed connection;
            # their call counts are complete only after that.
            deadline = time.monotonic() + 5.0
            while threading.active_count() > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        if self.writer is not None:
            self.writer.close()
        self.service.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def sim_metrics(service) -> Dict[str, float]:
    """The simulated end-to-end metrics; exact for a given fixture."""
    planner = service.planner
    decisions = planner.decisions()
    turnarounds = [planner.records[d.change_id].turnaround for d in decisions]
    committed = sum(1 for d in decisions if d.committed)
    stats = planner.stats
    return {
        "turnaround_p50_min": percentile(turnarounds, 0.5),
        "turnaround_p90_min": percentile(turnarounds, 0.9),
        "landed_per_sim_hour": committed / service.clock.now * 60.0,
        "build_min_per_landed": stats.build_minutes / committed,
        "useful_build_min_share": 1.0 - stats.wasted_minutes / stats.build_minutes,
    }


def program_counters(session: Session) -> Dict[str, float]:
    """Counts the program keeps itself, read from its public stats."""
    service = session.service
    stats = service.planner.stats
    reuse = service.controller.stats
    analyzer = service.analyzer.stats
    steps = stats.steps_executed + stats.steps_cached
    counters = {
        "planner.builds_started": stats.builds_started,
        "planner.aborted_share": stats.builds_aborted / max(1, stats.builds_started),
        "planner.plan_calls": stats.plan_calls,
        "planner.plan_skipped_share": stats.plan_calls_skipped / max(1, stats.plan_calls),
        "planner.prefix_hit_rate": reuse.prefix_hit_rate,
        "buildsys.steps_executed": stats.steps_executed,
        "buildsys.step_cache_hit_share": stats.steps_cached / max(1, steps),
        "conflict.fast_path_rate": analyzer.fast_path_rate,
    }
    if session.writer is not None:
        writer = session.writer
        counters["journal.records"] = writer.appends
        counters["journal.bytes"] = writer.bytes_written
        counters["obs.trace_records"] = len(service.recorder.tracer)
    return counters


def traced_tables(log, region: Tuple[float, float], session: Session) -> Dict[str, object]:
    """Per-span-name and per-layer totals of the timed region."""
    from bench import tracing

    spans = log.window(*region)
    rows = log.self_times(spans)
    roots_wall, roots_cpu = tracing.root_seconds(spans)

    def table(field: int, source) -> Dict[str, Dict[str, float]]:
        return {
            key: {
                "calls": totals.calls,
                "self_wall_ms": totals.self_wall_s * 1000.0,
                "self_cpu_ms": totals.self_cpu_s * 1000.0,
            }
            for key, totals in sorted(tracing.totals_by(source, field).items())
        }

    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(span[tracing.NAME], []).append(
            (span[tracing.WALL1] - span[tracing.WALL0]) * 1000.0
        )
    handler_ms = durations.get("serve.request", [])
    transport = [
        client - handler
        for (_, _, client, _), handler in zip(session.responses, handler_ms)
    ]
    return {
        "names": table(tracing.NAME, rows),
        "layers": table(tracing.LAYER, rows),
        # buildsys.load runs during set-up, outside the region's window.
        "whole_process_names": table(tracing.NAME, log.self_times()),
        "roots_wall_ms": roots_wall * 1000.0,
        "roots_cpu_ms": roots_cpu * 1000.0,
        "self_wall_ms": sum(row[1] for row in rows) * 1000.0,
        "self_cpu_ms": sum(row[2] for row in rows) * 1000.0,
        "spans": len(log.spans),
        "wall_ms_p50": {
            name: percentile(values, 0.5) for name, values in durations.items()
        },
        "transport_ms_p50": percentile(transport, 0.5) if transport else 0.0,
    }


def run(args: argparse.Namespace) -> Dict[str, object]:
    # The profiled worker only counts calls; a pacer would add its own.
    pin_to_one_cpu()
    pacer = None if args.mode == "profiled" else Pacer()
    wall_start = time.perf_counter()
    if pacer is not None:
        pacer.start()

    from repro.journal.fingerprint import fingerprint_digest

    from bench import check, fixtures

    log = counter = None
    if args.mode == "traced":
        from bench import tracing

        log = tracing.SpanLog()
        tracing.install(log)
    spec = fixtures.WORKLOADS[args.workload]
    fixture = fixtures.mint(args.workload, args.seed)
    session = Session(spec, fixture, args.workdir, args.gap)
    if args.mode == "profiled":
        from bench.profiling import CallCounter

        counter = CallCounter()
    if spec.served:
        session.open_server(drafts=session.items)
        if counter is not None:
            counter.hook_new_threads()
        session.connection.connect()
        if pacer is not None:
            # A pass in flight on the pacer thread would hold the interpreter
            # lock a request waits for; the client paces between requests.
            pacer.stop()

    def clocks() -> Tuple[float, float]:
        """Wall, and process CPU without the pacer's share."""
        paced = pacer.cpu_seconds() if pacer is not None else 0.0
        return time.perf_counter(), time.process_time() - paced

    steal_0, jiffies_0 = read_cpu_jiffies()
    wall_0, cpu_0 = clocks()
    try:
        if spec.served:
            session.drive_requests(
                None if pacer is None else lambda: pacer.timed_pass(SERVED_PASS_SLICES)
            )
            profile = counter.start_here() if counter is not None else None
            session.drive_recovery()
            if pacer is not None:
                pacer.timed_pass()
        else:
            profile = counter.start_here() if counter is not None else None
            session.drive_in_process()
        if profile is not None:
            profile.disable()
        escaped = None
    except Exception as exc:  # the boundary: an escaped exception is a failure
        escaped = f"{type(exc).__name__}: {exc}"
    wall_1, cpu_1 = clocks()
    steal_1, jiffies_1 = read_cpu_jiffies()
    if pacer is not None:
        pacer.stop()
    if args.mode == "plain" and not spec.served and escaped is None:
        session.probe_reads()

    service = session.service
    decided = {d.change_id: d.committed for d in service.planner.decisions()}
    failures = check.check_decisions(
        session.items, decided, service.repo.mainline_green_flags()
    )
    failures += check.check_responses([r[:2] for r in session.responses])
    live_digest = fingerprint_digest(service)
    if spec.served and escaped is None:
        failures += check.check_recovery(
            live_digest, fingerprint_digest(session.recovery.service)
        )
    if escaped is not None:
        failures.append(f"escaped exception: {escaped}")
    result: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "served": spec.served,
        "changes": len(decided),
        "attempted": len(session.items) + len(session.responses),
        "failed": len(failures),
        "failures": failures[:8],
        "fingerprint": live_digest,
        "sim": sim_metrics(service) if decided else {},
        # Process CPU since the interpreter started, the pacer's excluded.
        "setup_cpu_s": cpu_0,
        "region_cpu_s": cpu_1 - cpu_0,
        "region_wall_s": wall_1 - wall_0,
        "steal_share": (steal_1 - steal_0) / max(1, jiffies_1 - jiffies_0),
        "counters": program_counters(session),
    }
    if pacer is not None:
        result["setup_pass_ms"] = pacer.pass_ms(wall_start, wall_0)
        result["region_pass_ms"] = pacer.pass_ms(wall_0, wall_1)
        result["pacer_passes"] = len(pacer.passes)
    if session.responses:
        by_kind: Dict[str, List[float]] = {}
        for _, _, elapsed, kind in session.responses:
            by_kind.setdefault(kind, []).append(elapsed)
        everything = [r[2] for r in session.responses]
        result["http"] = {
            "requests": len(everything),
            "all_ms_p50": percentile(everything, 0.5),
            "read_ms_p50": percentile(by_kind["read"], 0.5),
            "read_ms_p99": percentile(by_kind["read"], 0.99),
        }
        for kind in ("land", "process"):
            if kind in by_kind:
                result["http"][f"{kind}_ms_p50"] = percentile(by_kind[kind], 0.5)
    if session.recovery is not None:
        result["recovered_records"] = session.recovery.journal_records
    if log is not None:
        result["trace"] = traced_tables(log, (wall_0, wall_1), session)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(log.to_chrome_trace(), handle)
    session.close()
    if counter is not None:
        counter.unhook_new_threads()
        import repro

        result["py_calls"] = counter.rollup(
            os.path.dirname(os.path.abspath(repro.__file__)),
            os.path.dirname(os.path.abspath(__file__)),
        )
    # Peak RSS last: it covers the whole life of the process.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"), default="plain")
    parser.add_argument("--workdir", required=True, help="scratch directory (journal)")
    parser.add_argument("--trace-out", default="", help="Chrome-trace JSON path")
    parser.add_argument("--gap", type=float, default=None, help="arrival gap override")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
