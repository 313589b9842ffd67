#!/usr/bin/env python3
"""Record once, replay at every rate: the paper's evaluation methodology.

Section 8.1: "we selected the above changes, and ingested them into our
system at different rates (i.e., 100, 200, 300, 400 and 500 changes per
hour).  Thus, the only difference with the real data is the inter-arrival
time between two changes."

This example records a synthetic change trace to CSV, reloads it, and
replays the *same* changes (same ground truth, same build durations, same
conflict coins) at several ingestion rates through SubmitQueue — showing
how turnaround degrades with load while the inputs stay fixed.

Run:  python examples/replay_dataset.py [--trace /tmp/trace.csv]
"""

import argparse
import io
from dataclasses import replace

from repro.changes.truth import potential_conflict
from repro.experiments.runner import format_table
from repro.planner.controller import LabelBuildController
from repro.predictor.predictors import OraclePredictor
from repro.sim.simulator import Simulation
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.workload.generator import WorkloadGenerator
from repro.workload.replay import dump_stream, load_stream, retime_stream
from repro.workload.scenarios import IOS_WORKLOAD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None,
                        help="path to save the recorded trace (default: memory)")
    parser.add_argument("--changes", type=int, default=200)
    parser.add_argument("--workers", type=int, default=200)
    args = parser.parse_args()

    # 1. Record a trace.
    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=99))
    recorded = generator.stream(300.0, args.changes)
    if args.trace:
        with open(args.trace, "w") as fp:
            dump_stream(recorded, fp)
        with open(args.trace) as fp:
            trace = load_stream(fp)
        print(f"recorded {len(trace)} changes to {args.trace}")
    else:
        buffer = io.StringIO()
        dump_stream(recorded, buffer)
        buffer.seek(0)
        trace = load_stream(buffer)
        print(f"recorded {len(trace)} changes (in-memory trace, "
              f"{buffer.tell()} bytes of CSV)")

    # 2. Replay the same trace at different rates.
    rows = []
    for rate in (100.0, 200.0, 300.0, 400.0, 500.0):
        stream = retime_stream(trace, rate)
        result = Simulation(
            strategy=SubmitQueueStrategy(OraclePredictor()),
            controller=LabelBuildController(),
            workers=args.workers,
            conflict_predicate=potential_conflict,
        ).run(stream)
        stats = result.turnaround
        rows.append(
            [f"{rate:g}/h", f"{stats['p50']:.0f}", f"{stats['p95']:.0f}",
             f"{result.throughput_per_hour:.0f}/h",
             f"{result.committed}/{result.submitted}"]
        )
    print(
        format_table(
            ["ingestion rate", "P50 (min)", "P95 (min)", "throughput",
             "landed"],
            rows,
            title=(
                f"\nsame {args.changes}-change trace through SubmitQueue, "
                f"{args.workers} workers"
            ),
        )
    )
    print("\nOnly inter-arrival times differ between rows — every change "
          "keeps its duration, outcome, and conflict coins.")


if __name__ == "__main__":
    main()
