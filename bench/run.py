"""The benchmark's one command.

Contract form (what ``BENCHMARK.json`` names and the driver calls)::

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload as a sequence of fresh worker processes for about N
seconds, checks every output, prints every metric by name with its unit
and, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all four workloads.  ``--selfcheck`` runs
the full set twice and compares the two (A/A), ``--spread`` runs it on
ten seeds and reports each metric's quartile distance, ``--sweep``
records the arrival-gap series; each writes its table to
``bench/results/``.  ``python -m bench.run`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: sys.path[0] is bench/ itself
    sys.path.insert(0, ROOT)

from bench.calib import CALIB_REF_MS, normalise  # noqa: E402
from bench.profiling import REPRO_BUCKETS  # noqa: E402

CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Tables of ``--selfcheck``, ``--spread`` and ``--sweep``; committed.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
#: Raw readings of every run, Chrome traces and scratch; ignored by git.
RUNS_DIR = os.path.join(RESULTS_DIR, "runs")
#: Plain repeats a run makes even when the time budget is already spent.
MIN_REPEATS = 3
MAX_REPEATS = 24
#: A worker that runs this long is stuck; the contract caps a run at 180 s.
WORKER_TIMEOUT_S = 150.0
SIM_METRICS = (
    "turnaround_p50_min",
    "turnaround_p90_min",
    "landed_per_sim_hour",
    "build_min_per_landed",
    "useful_build_min_share",
)
SWEEP_GAPS = (12.0, 8.0, 6.0, 4.0, 3.0)
#: Runs per workload of ``--spread``, each on a seed of its own.
SPREAD_RUNS = 10
#: Relative slack of a served workload's total call count between repeats.
PY_CALLS_SOCKET_DRIFT = 1e-4


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_contract() -> Dict[str, object]:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_specs(contract: Dict[str, object], traced: bool) -> List[Dict[str, object]]:
    return contract["per_layer" if traced else "end_to_end"]


def run_worker(
    workload: str, seed: int, mode: str, extra: Sequence[str] = ()
) -> Dict[str, object]:
    """One fresh worker process, waited for; returns its readings."""
    workdir = os.path.join(RUNS_DIR, "tmp")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workdir", workdir, *extra,
    ]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker of {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{mode} worker of {workload} exited {done.returncode}:\n{done.stderr}"
        )
    readings = json.loads(done.stdout.strip().splitlines()[-1])
    readings["worker_wall_s"] = time.perf_counter() - started
    return readings


def region_cpu_ms_per_change(reading: Dict[str, object]) -> float:
    cpu_ms = reading["region_cpu_s"] * 1000.0 / reading["changes"]
    return normalise(cpu_ms, reading["region_pass_ms"])


def setup_seconds(reading: Dict[str, object]) -> float:
    return normalise(reading["setup_cpu_s"], reading["setup_pass_ms"])


class Run:
    """Every worker of one ``(workload, seed)`` run and the metrics they give."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.plain: List[Dict[str, object]] = []
        self.profiled: Optional[Dict[str, object]] = None
        self.traced: Optional[Dict[str, object]] = None
        self.problems: List[str] = []

    def measure(self, seconds: float, traced: bool, profiled: bool) -> None:
        """Workers, one at a time, until ``seconds`` are spent.

        A traced run adds one traced and one profiled worker in front of
        the plain repeats; ``profiled`` alone (the A/A check) adds only
        the call count.  cProfile multiplies the burst's CPU time by five,
        which is why plain end-to-end runs do without it.
        """
        deadline = time.perf_counter() + seconds
        if traced:
            trace_path = os.path.join(RUNS_DIR, f"trace_{self.workload}.json")
            self.traced = run_worker(
                self.workload, self.seed, "traced", ("--trace-out", trace_path)
            )
        if traced or profiled:
            self.profiled = run_worker(self.workload, self.seed, "profiled")
        min_repeats = 2 if traced else MIN_REPEATS
        while len(self.plain) < MAX_REPEATS:
            if len(self.plain) >= min_repeats:
                longest = max(r["worker_wall_s"] for r in self.plain)
                if time.perf_counter() + longest > deadline:
                    break
            self.plain.append(run_worker(self.workload, self.seed, "plain"))
        self._verify()

    def workers(self) -> List[Dict[str, object]]:
        return [w for w in (self.traced, self.profiled, *self.plain) if w]

    def _verify(self) -> None:
        workers = self.workers()
        for worker in workers:
            self.problems += [f"{worker['mode']}: {f}" for f in worker["failures"]]
        if len({w["fingerprint"] for w in workers}) != 1:
            self.problems.append("repeats disagree on fingerprint_digest")
        if len({json.dumps(w["sim"], sort_keys=True) for w in workers}) != 1:
            self.problems.append("repeats disagree on simulated metrics")
        if self.traced is not None:
            trace = self.traced["trace"]
            if abs(trace["self_cpu_ms"] - trace["roots_cpu_ms"]) > 1e-6 * max(
                1.0, trace["roots_cpu_ms"]
            ):
                self.problems.append("layer self times do not sum to the root spans")

    @property
    def attempted(self) -> int:
        return sum(w["attempted"] for w in self.workers())

    @property
    def failed(self) -> int:
        return sum(w["failed"] for w in self.workers())

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def program_calls(self) -> int:
        """Calls made by code under ``src/repro`` (repeats bit for bit)."""
        counts = self.profiled["py_calls"]
        return sum(counts[bucket] for bucket in REPRO_BUCKETS)

    def py_calls_per_change(self) -> float:
        return sum(self.profiled["py_calls"].values()) / self.profiled["changes"]

    def end_to_end(self) -> Dict[str, float]:
        first = self.plain[0]
        metrics = {name: first["sim"][name] for name in SIM_METRICS}
        metrics.update(
            setup_s=statistics.median(setup_seconds(r) for r in self.plain),
            cpu_ms_per_change=statistics.median(
                region_cpu_ms_per_change(r) for r in self.plain
            ),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in self.plain),
            http_p50_ms=statistics.median(
                r["http"]["all_ms_p50"] for r in self.plain
            ),
        )
        return metrics

    def diagnostics(self) -> Dict[str, float]:
        """Raw host readings (medians over the plain repeats); never gated."""
        plain = self.plain
        return {
            "raw_cpu_ms_per_change": statistics.median(
                r["region_cpu_s"] * 1000.0 / r["changes"] for r in plain
            ),
            "raw_setup_s": statistics.median(r["setup_cpu_s"] for r in plain),
            "wall_ms_per_change": statistics.median(
                r["region_wall_s"] * 1000.0 / r["changes"] for r in plain
            ),
            "steal_share": statistics.median(r["steal_share"] for r in plain),
            "calib_ms": statistics.median(r["region_pass_ms"] for r in plain),
        }

    def per_layer(self) -> Dict[str, float]:
        traced = self.traced
        trace = traced["trace"]
        changes = traced["changes"]
        scale = normalise(1.0, traced["region_pass_ms"])
        names, whole = trace["names"], trace["whole_process_names"]
        counters = traced["counters"]
        http = traced.get("http", {})
        p50 = trace["wall_ms_p50"]

        def calls(name: str) -> float:
            return names.get(name, {}).get("calls", 0) / changes

        def self_ms(name: str) -> float:
            return names.get(name, {}).get("self_cpu_ms", 0.0) * scale / changes

        metrics: Dict[str, float] = {}
        for name in (
            "buildsys.derive", "buildsys.hash", "buildsys.exec",
            "speculation.select", "planner.plan", "conflict.analyze",
            "conflict.advance_base", "service.submit", "vcs.commit",
            "vcs.patch_apply", "journal.append", "journal.snapshot", "obs.emit",
        ):
            metrics[f"{name}_calls"] = calls(name)
            metrics[f"{name}_self_ms"] = self_ms(name)
        for name in (
            "speculation.commit_prob", "planner.complete", "planner.execute",
            "planner.on_commit", "service.pump",
        ):
            metrics[f"{name}_self_ms"] = self_ms(name)
        records = counters.get("journal.records", 0)
        metrics.update(
            {
                # Set-up work: per process, not per change.
                "buildsys.load_calls": whole.get("buildsys.load", {}).get("calls", 0),
                "buildsys.load_self_ms": whole.get("buildsys.load", {}).get(
                    "self_cpu_ms", 0.0
                ) * normalise(1.0, traced["setup_pass_ms"]),
                "buildsys.steps_executed": counters["buildsys.steps_executed"] / changes,
                "buildsys.step_cache_hit_share": counters["buildsys.step_cache_hit_share"],
                "planner.prefix_hit_rate": counters["planner.prefix_hit_rate"],
                "planner.plan_skipped_share": counters["planner.plan_skipped_share"],
                "planner.builds_started": counters["planner.builds_started"] / changes,
                "planner.aborted_share": counters["planner.aborted_share"],
                "conflict.pair_checks": calls("conflict.pair"),
                "conflict.pair_self_ms": self_ms("conflict.pair"),
                "conflict.fast_path_rate": counters["conflict.fast_path_rate"],
                "journal.bytes_per_record": counters.get("journal.bytes", 0) / max(1, records),
                "journal.bytes_per_change": counters.get("journal.bytes", 0) / changes,
                "journal.recover_ms_per_record": p50.get("journal.recover", 0.0)
                * scale / max(1, traced.get("recovered_records", 0)),
                "obs.trace_records": counters.get("obs.trace_records", 0),
                "obs.slo_read_ms_p50": p50.get("obs.slo_read", 0.0),
                "obs.metrics_read_ms_p50": p50.get("obs.metrics_read", 0.0),
                "serve.land_wall_ms_p50": http.get("land_ms_p50", 0.0),
                "serve.process_wall_ms_p50": http.get("process_ms_p50", 0.0),
                "serve.read_wall_ms_p50": http.get("read_ms_p50", 0.0),
                "serve.read_wall_ms_p99": http.get("read_ms_p99", 0.0),
                "serve.transport_ms_p50": trace["transport_ms_p50"],
                "serve.failed_share": sum(
                    1 for f in traced["failures"] if " answered " in f
                ) / max(1, http.get("requests", 0)),
            }
        )
        metrics["py_calls_per_change"] = self.py_calls_per_change()
        for bucket, count in self.profiled["py_calls"].items():
            metrics[f"{bucket}.py_calls_per_change"] = count / changes
        plain_cpu = statistics.median(region_cpu_ms_per_change(r) for r in self.plain)
        raw = self.diagnostics()
        metrics.update(
            {
                "trace.overhead_share": region_cpu_ms_per_change(traced) / plain_cpu - 1.0,
                "run.wall_ms_per_change": raw["wall_ms_per_change"],
                "run.steal_share": raw["steal_share"],
                "run.calib_ms_p50": raw["calib_ms"],
                "run.repeats": len(self.plain),
            }
        )
        return metrics

    def save(self, traced: bool) -> str:
        os.makedirs(RUNS_DIR, exist_ok=True)
        path = os.path.join(
            RUNS_DIR, f"{self.workload}_seed{self.seed}_trace{int(traced)}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": self.workload,
                    "seed": self.seed,
                    "calib_ref_ms": CALIB_REF_MS,
                    "problems": self.problems,
                    "workers": self.workers(),
                },
                handle,
                indent=1,
            )
        return path


def measure(
    contract: Dict[str, object],
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    profiled: bool = False,
) -> Tuple[Run, Dict[str, float]]:
    """One contract run: the workers, then the metrics the mode asks for."""
    wanted = metric_specs(contract, traced)
    run = Run(workload, seed)
    run.measure(seconds, traced, profiled)
    values = run.per_layer() if traced else run.end_to_end()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing or len(values) != len(wanted):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {sorted(set(values) - {m['name'] for m in wanted})}"
        )
    run.save(traced)
    return run, values


def result_line(run: Run, values: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        }
    )


def print_run(run: Run, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(
        f"== {run.workload}  seed {run.seed}  repeats {len(run.plain)}  "
        f"attempted {run.attempted}  failed {run.failed}  "
        f"{'correct' if run.correct else 'INCORRECT'}"
    )
    for problem in run.problems[:8]:
        print(f"   problem: {problem}")
    for name, value in values.items():
        print(f"   {name:38s} {value:16.6f} {units[name]}")
    if run.traced is not None:
        trace = run.traced["trace"]
        print(f"   -- layer self CPU of the traced region (raw ms; roots {trace['roots_cpu_ms']:.3f})")
        for layer, row in trace["layers"].items():
            print(f"   {layer:12s} calls {row['calls']:8d}  self {row['self_cpu_ms']:12.3f} ms")
        print(f"   {'sum':12s} {'':14s}  self {trace['self_cpu_ms']:12.3f} ms")


# -- the non-contract modes ---------------------------------------------------


def run_set(
    contract: Dict[str, object],
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    traced: bool,
    profiled: bool = False,
) -> Dict[str, Tuple[Run, Dict[str, float]]]:
    units = {m["name"]: m["unit"] for m in metric_specs(contract, traced)}
    results = {}
    for workload in workloads:
        run, values = measure(contract, workload, seed, seconds, traced, profiled)
        print_run(run, values, units)
        results[workload] = (run, values)
    return results


def selfcheck(
    contract: Dict[str, object], workloads: Sequence[str], seed: int, seconds: float
) -> int:
    """A/A: the full set twice, each metric's difference against its bound."""
    first = run_set(contract, workloads, seed, seconds, traced=False, profiled=True)
    second = run_set(contract, workloads, seed, seconds, traced=False, profiled=True)
    lines = [
        f"A/A self-check, seed {seed}, {seconds:g} s per run "
        f"(worse = B worse than A; exact metrics must be bit-identical)",
        "",
        "| workload | metric | A | B | worse by | bound | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    breaches = 0
    for workload in workloads:
        (run_a, a), (run_b, b) = first[workload], second[workload]
        if not (run_a.correct and run_b.correct):
            breaches += 1
            lines.append(f"| {workload} | (outputs) | | | | | INCORRECT |")
        if run_a.plain[0]["fingerprint"] != run_b.plain[0]["fingerprint"]:
            breaches += 1
            lines.append(f"| {workload} | fingerprint_digest | | | | | DIFFERS |")
        for label, exact_a, exact_b in (
            ("py_calls in repro/", run_a.program_calls(), run_b.program_calls()),
            (
                "journal bytes",
                run_a.plain[0]["counters"].get("journal.bytes", 0),
                run_b.plain[0]["counters"].get("journal.bytes", 0),
            ),
        ):
            verdict = "exact" if exact_a == exact_b else "NOT EXACT"
            breaches += exact_a != exact_b
            lines.append(
                f"| {workload} | {label} | {exact_a} | {exact_b} | | | {verdict} |"
            )
        # Socket reads retry a varying number of times, so the served
        # workload's stdlib and builtin counts wobble in the sixth digit.
        calls_a, calls_b = run_a.py_calls_per_change(), run_b.py_calls_per_change()
        drift = abs(calls_b - calls_a) / calls_a
        ok = drift <= (PY_CALLS_SOCKET_DRIFT if run_a.profiled["served"] else 0.0)
        breaches += not ok
        lines.append(
            f"| {workload} | py_calls_per_change | {calls_a:.6f} | {calls_b:.6f} | "
            f"{drift:.1e} | | {'exact' if not drift else 'ok' if ok else 'NOT EXACT'} |"
        )
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b[name] - a[name]) / a[name]
            if name in SIM_METRICS:
                ok = a[name] == b[name]
                verdict = "exact" if ok else "NOT EXACT"
            else:
                ok = abs(worse) <= bound
                verdict = "ok" if ok else "BREACH"
            breaches += 0 if ok else 1
            lines.append(
                f"| {workload} | {name} | {a[name]:.6g} | {b[name]:.6g} | "
                f"{worse:+.2%} | {bound:.0%} | {verdict} |"
            )
    lines.append("")
    lines.append(f"{breaches} breach(es)")
    text = "\n".join(lines) + "\n"
    print(text)
    with open(os.path.join(RESULTS_DIR, "selfcheck.md"), "w", encoding="utf-8") as handle:
        handle.write(text)
    return 1 if breaches else 0


def spread(
    contract: Dict[str, object], workloads: Sequence[str], first_seed: int, seconds: float
) -> int:
    """Ten runs per workload on ten seeds: each metric's quartile distance.

    The distance between the first and third quartile as a share of the
    median is what the bound has to cover three times over.  The raw
    (not normalised) CPU readings of the same runs are listed beside the
    gated ones: the evidence for the estimator.
    """
    seeds = range(first_seed, first_seed + SPREAD_RUNS)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    lines = [
        f"Run-to-run spread, seeds {seeds[0]}..{seeds[-1]}, {seconds:g} s per run "
        "(spread = (Q3 - Q1) / median over the ten runs; (raw) rows are not gated)",
        "",
        "| workload | metric | median | min | max | spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    breaches = 0
    for workload in workloads:
        series: Dict[str, List[float]] = {}
        for seed in seeds:
            run, values = measure(contract, workload, seed, seconds, traced=False)
            print(f"{workload} seed {seed}: {len(run.plain)} repeats, "
                  f"{'correct' if run.correct else 'INCORRECT'}")
            breaches += not run.correct
            raw = run.diagnostics()
            values["(raw) cpu_ms_per_change"] = raw["raw_cpu_ms_per_change"]
            values["(raw) setup_s"] = raw["raw_setup_s"]
            values["(raw) steal_share"] = raw["steal_share"]
            values["repeats"] = len(run.plain)
            for name, value in values.items():
                series.setdefault(name, []).append(value)
        for name, samples in series.items():
            quartiles = statistics.quantiles(samples, n=4)
            middle = statistics.median(samples)
            share = (quartiles[2] - quartiles[0]) / middle if middle else 0.0
            bound = bounds.get(name)
            if bound is None:
                verdict, shown = "", ""
            else:
                shown = f"{bound:.0%}"
                verdict = (
                    "ok" if 3 * share <= bound else "wide" if share <= bound else "BREACH"
                )
                # setup_s is gated on its median only, not on its spread.
                breaches += verdict == "BREACH" and name != "setup_s"
            lines.append(
                f"| {workload} | {name} | {middle:.6g} | {min(samples):.6g} | "
                f"{max(samples):.6g} | {share:.2%} | {shown} | {verdict} |"
            )
    lines.append("")
    lines.append(f"{breaches} breach(es)")
    text = "\n".join(lines) + "\n"
    print(text)
    with open(os.path.join(RESULTS_DIR, "spread.md"), "w", encoding="utf-8") as handle:
        handle.write(text)
    return 1 if breaches else 0


def sweep(seed: int) -> int:
    """``steady_shallow`` at shrinking arrival gaps: where cost diverges."""
    rows = []
    for gap in SWEEP_GAPS:
        reading = run_worker("steady_shallow", seed, "plain", ("--gap", str(gap)))
        rows.append(
            {
                "gap_sim_min": gap,
                "landed_per_sim_hour": reading["sim"]["landed_per_sim_hour"],
                "turnaround_p90_min": reading["sim"]["turnaround_p90_min"],
                "cpu_ms_per_change": region_cpu_ms_per_change(reading),
                "failed": reading["failed"],
            }
        )
        print(
            "gap {gap_sim_min:5.1f} sim-min  landed/h {landed_per_sim_hour:8.3f}  "
            "p90 {turnaround_p90_min:9.2f} sim-min  cpu {cpu_ms_per_change:8.3f} "
            "ms/change  failed {failed}".format(**rows[-1])
        )
    with open(os.path.join(RESULTS_DIR, "sweep.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "workers": 8, "rows": rows}, handle, indent=1)
    return 1 if any(row["failed"] for row in rows) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--spread", action="store_true", help="ten seeds from --seed on")
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro next to bench/; nothing to measure", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    traced = bool(args.trace or args.traced)
    workloads = [args.workload] if args.workload else names
    try:
        if args.sweep:
            return sweep(args.seed)
        if args.selfcheck:
            return selfcheck(contract, workloads, args.seed, args.seconds)
        if args.spread:
            return spread(contract, workloads, args.seed, args.seconds)
        results = run_set(contract, workloads, args.seed, args.seconds, traced)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(RUNS_DIR, "tmp"), ignore_errors=True)
    if args.workload:
        # Contract form: the result line carries the verdict, the exit
        # code only says that a result was produced.
        run, values = results[args.workload]
        units = {m["name"]: m["unit"] for m in metric_specs(contract, traced)}
        print(result_line(run, values, units))
        return 0
    return 0 if all(run.correct for run, _ in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
