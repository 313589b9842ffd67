"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — run a SubmitQueue simulation on a synthetic workload;
* ``compare``    — all strategies on one stream (mini Figures 11/12);
* ``figure``     — regenerate one paper figure's table;
* ``train``      — train the prediction models and report section 7.2;
* ``obs``        — inspect recorded runs: ``report`` renders a JSONL
  trace as an epoch-by-epoch text report, ``trace`` converts it to
  Chrome ``trace_event`` JSON (load in Perfetto / chrome://tracing),
  ``validate`` checks it against the trace schema;
* ``serve``      — the HTTP observability service: boot a simulated (or
  journal-replayed) SubmitQueue and expose ``/healthz``, ``/metrics``,
  ``/state``, ``/slo``, ``/trace`` plus the ApiHandlers surface;
* ``journal``    — durable event journals: ``inspect`` summarizes one,
  ``verify`` checks framing/schema (``--replay`` re-runs the log through
  the service and diffs every emitted record), ``recover`` restores a
  service and prints its recovered-state fingerprint.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

FIGURES = ("1", "2", "9", "10", "11", "12", "13", "14", "accuracy", "stability")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Keeping Master Green at Scale' (EuroSys'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="run one SubmitQueue simulation")
    quick.add_argument("--changes", type=int, default=200)
    quick.add_argument("--rate", type=float, default=300.0)
    quick.add_argument("--workers", type=int, default=100)
    quick.add_argument("--seed", type=int, default=0)
    quick.add_argument(
        "--trace", metavar="PREFIX", default=None,
        help="record the run and write PREFIX.jsonl, PREFIX.trace.json "
             "and PREFIX.prom",
    )

    compare = sub.add_parser("compare", help="all strategies on one stream")
    compare.add_argument("--changes", type=int, default=250)
    compare.add_argument("--rate", type=float, default=300.0)
    compare.add_argument("--workers", type=int, default=200)
    compare.add_argument("--seed", type=int, default=42)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", choices=FIGURES)
    figure.add_argument(
        "--quick", action="store_true",
        help="smaller sample sizes (seconds instead of minutes)",
    )
    figure.add_argument(
        "--trace", metavar="PREFIX", default=None,
        help="figure 12 only: trace the first SubmitQueue cell and write "
             "PREFIX.jsonl, PREFIX.trace.json and PREFIX.prom",
    )

    train = sub.add_parser("train", help="train the prediction models")
    train.add_argument("--history", type=int, default=4000)
    train.add_argument("--seed", type=int, default=7)

    obs = sub.add_parser("obs", help="inspect a recorded run")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="epoch-by-epoch text report of a JSONL trace"
    )
    report.add_argument("trace", help="path to a .jsonl trace file")
    report.add_argument("--max-epochs", type=int, default=40)
    trace = obs_sub.add_parser(
        "trace", help="convert a JSONL trace to Chrome trace_event JSON"
    )
    trace.add_argument("trace", help="path to a .jsonl trace file")
    trace.add_argument(
        "-o", "--output", default=None,
        help="output path (default: stdout)",
    )
    validate = obs_sub.add_parser(
        "validate", help="check a JSONL trace against the schema"
    )
    validate.add_argument("trace", help="path to a .jsonl trace file")

    serve = sub.add_parser(
        "serve", help="HTTP observability service over a live SubmitQueue"
    )
    serve.add_argument(
        "--workload", default="quickstart",
        help="'quickstart' (simulated figure-12 cell) or 'journal:DIR' "
             "(replay a journal directory into a served service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="TCP port (0 picks a free one; the bound URL is printed)",
    )
    serve.add_argument("--changes", type=int, default=24)
    serve.add_argument("--drafts", type=int, default=4)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--workers", type=int, default=8)
    serve.add_argument(
        "--backend", default="process:2",
        help="build-backend spec for the quickstart workload "
             "('none' keeps builds inline)",
    )
    serve.add_argument(
        "--step-wall-ms", type=float, default=2.0,
        help="synthetic wall cost per executed build step (milliseconds); "
             "gives the spliced worker spans real extent",
    )
    serve.add_argument(
        "--slo-window", type=float, default=60.0,
        help="rolling /slo window in simulated minutes",
    )
    serve.add_argument(
        "--batching", action="store_true",
        help="quickstart workload only: drive the queue with the "
             "risk-aware batching strategy (/slo grows a 'batching' "
             "section, /metrics the risk_batch_* series)",
    )
    serve.add_argument(
        "--trace", metavar="PREFIX", default=None,
        help="at shutdown write PREFIX.jsonl, PREFIX.trace.json and "
             "PREFIX.prom",
    )

    journal = sub.add_parser("journal", help="durable event journals")
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    j_inspect = journal_sub.add_parser(
        "inspect", help="summarize a journal directory"
    )
    j_inspect.add_argument("journal_dir", help="directory holding events.jsonl")
    j_verify = journal_sub.add_parser(
        "verify", help="check journal framing and schema"
    )
    j_verify.add_argument("journal_dir", help="directory holding events.jsonl")
    j_verify.add_argument(
        "--replay", action="store_true",
        help="also replay the journal through the service and diff every "
             "re-emitted record (read-only; the journal is not modified)",
    )
    j_recover = journal_sub.add_parser(
        "recover", help="restore a service from a journal and summarize it"
    )
    j_recover.add_argument("journal_dir", help="directory holding events.jsonl")
    j_recover.add_argument(
        "--no-attach", action="store_true",
        help="leave the journal untouched (no tail truncation or resume)",
    )

    parallel = sub.add_parser(
        "parallel",
        help="demo process-parallel speculation builds vs one worker process",
    )
    parallel.add_argument(
        "--changes", type=int, default=12, help="changes in the cell"
    )
    parallel.add_argument(
        "--workers", type=int, default=4, help="worker processes"
    )
    parallel.add_argument(
        "--step-wall-ms", type=float, default=5.0,
        help="synthetic wall cost per executed build step (milliseconds)",
    )
    parallel.add_argument("--seed", type=int, default=23)
    parallel.add_argument(
        "--batching", action="store_true",
        help="also run the cell under risk-aware batching and report its "
             "simulated landing rate vs plain SubmitQueue",
    )
    return parser


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import quickstart_components
    from repro.obs.recorder import NULL_RECORDER, Recorder

    recorder = Recorder() if args.trace else NULL_RECORDER
    simulation, stream = quickstart_components(
        rate_per_hour=args.rate, count=args.changes, workers=args.workers,
        seed=args.seed, recorder=recorder,
    )
    summary = simulation.run(stream)
    turnaround = summary.turnaround
    print(
        f"{simulation.planner.strategy.name}: {summary.committed}/"
        f"{summary.submitted} landed, "
        f"P50 {turnaround['p50']:.0f} min, P95 {turnaround['p95']:.0f} min, "
        f"throughput {summary.throughput_per_hour:.0f}/h, "
        f"utilization {summary.utilization:.0%}"
    )
    if args.trace:
        for path in _write_trace_outputs(recorder, args.trace):
            print(f"wrote {path}")
    return 0


def _write_trace_outputs(recorder, prefix: str) -> List[str]:
    """Write the JSONL / Chrome-trace / Prometheus views of one run."""
    jsonl = f"{prefix}.jsonl"
    chrome = f"{prefix}.trace.json"
    prom = f"{prefix}.prom"
    recorder.write_jsonl(jsonl)
    recorder.write_chrome_trace(chrome)
    with open(prom, "w", encoding="utf-8") as handle:
        handle.write(recorder.prometheus_text())
    return [jsonl, chrome, prom]


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.inspect import format_report, load_trace
    from repro.obs.schema import validate_file

    if args.obs_command == "validate":
        errors = validate_file(args.trace)
        if errors:
            for error in errors:
                print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"{args.trace}: valid")
        return 0
    trace = load_trace(args.trace)
    if args.obs_command == "report":
        print(format_report(trace, max_epochs=args.max_epochs))
        return 0
    # args.obs_command == "trace"
    payload = json.dumps(trace.to_chrome_trace(), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.recorder import Recorder
    from repro.serve import (
        ObservabilityServer,
        build_journal_service,
        build_quickstart_service,
    )

    recorder = Recorder()
    if args.workload == "quickstart":
        backend = None if args.backend in ("none", "") else args.backend
        core, handlers = build_quickstart_service(
            changes=args.changes,
            drafts=args.drafts,
            seed=args.seed,
            workers=args.workers,
            backend=backend,
            step_wall_seconds=args.step_wall_ms / 1000.0,
            recorder=recorder,
            batching=args.batching,
        )
    elif args.workload.startswith("journal:"):
        core, handlers = build_journal_service(
            args.workload[len("journal:"):], recorder=recorder
        )
    else:
        print(
            f"unknown workload {args.workload!r} "
            "(expected 'quickstart' or 'journal:DIR')",
            file=sys.stderr,
        )
        return 2
    server = ObservabilityServer(
        core,
        handlers=handlers,
        host=args.host,
        port=args.port,
        slo_window_minutes=args.slo_window,
    )
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        core.close()
        if args.trace:
            for path in _write_trace_outputs(recorder, args.trace):
                print(f"wrote {path}")
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    from repro.errors import JournalError
    from repro.journal import (
        fingerprint_digest,
        format_summary,
        recover,
        summarize,
        verify_journal,
    )

    if args.journal_command == "inspect":
        try:
            print(format_summary(summarize(args.journal_dir)))
        except JournalError as error:
            print(f"corrupt: {error}", file=sys.stderr)
            return 1
        return 0
    if args.journal_command == "verify":
        result = verify_journal(args.journal_dir, replay=args.replay)
        if not result.ok:
            print(f"corrupt: {result.error}", file=sys.stderr)
            return 1
        line = f"{args.journal_dir}: ok, {result.records} records"
        if result.torn_tail_bytes:
            line += f", {result.torn_tail_bytes} torn tail bytes"
        if result.replayed is not None:
            line += (
                f", replayed {result.replayed} inputs, "
                f"verified {result.verified} records"
            )
        print(line)
        return 0
    # args.journal_command == "recover"
    try:
        report = recover(args.journal_dir, attach=not args.no_attach)
    except JournalError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    service = report.service
    print(
        f"recovered: {report.journal_records} records"
        + (" from snapshot" if report.snapshot_restored else " from genesis")
        + f", replayed {report.replayed} inputs, "
        f"verified {report.verified} records"
    )
    if report.truncated_bytes:
        print(f"dropped torn tail: {report.truncated_bytes} bytes")
    if report.regenerated:
        print(f"re-appended lost records: {report.regenerated}")
    print(
        f"state: t={service.clock.now:g} min, "
        f"mainline {service.repo.mainline_length()} commits "
        f"(green={service.repo.is_green()}), "
        f"{service.planner.pending_count()} pending, "
        f"{len(service.planner.decided)} decided"
    )
    print(f"fingerprint: {fingerprint_digest(service)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import (
        format_table,
        make_stream,
        oracle_ratios,
        run_cell,
        strategy_factories,
    )
    from repro.strategies.oracle import OracleStrategy

    stream = make_stream(args.rate, args.changes, seed=args.seed)
    rows = []
    base = None
    for factory in (OracleStrategy, *strategy_factories().values()):
        strategy = factory()
        summary = run_cell(strategy, stream, args.workers)
        if base is None:
            base = summary
        ratios = oracle_ratios(summary, base)
        turnaround = summary.turnaround
        rows.append(
            [strategy.name, f"{turnaround['p50']:.0f}",
             f"{turnaround['p95']:.0f}",
             f"{ratios['p50']:.2f}x", f"{ratios['p95']:.2f}x",
             f"{summary.throughput_per_hour:.0f}/h"]
        )
    print(
        format_table(
            ["strategy", "P50", "P95", "P50 vs Oracle", "P95 vs Oracle",
             "throughput"],
            rows,
            title=(
                f"{args.changes} changes @ {args.rate:g}/h, "
                f"{args.workers} workers"
            ),
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    quick = args.quick
    if args.id == "1":
        from repro.experiments import figure01 as module

        result = module.run(groups=80 if quick else 250,
                            pool_size=400 if quick else 1200)
    elif args.id == "2":
        from repro.experiments import figure02 as module

        result = module.run(trials=40 if quick else 150)
    elif args.id == "9":
        from repro.experiments import figure09 as module

        result = module.run(samples=5000 if quick else 30000)
    elif args.id == "10":
        from repro.experiments import figure10 as module

        result = module.run(changes_per_rate=120 if quick else 400)
    elif args.id == "11":
        from repro.experiments import figure11 as module

        result = module.run(changes_per_cell=80 if quick else 300)
        print(module.format_result(result, "p50"))
        print()
        print(module.format_result(result, "p95"))
        return 0
    elif args.id == "12":
        from repro.experiments import figure12 as module

        if args.trace:
            from repro.obs.recorder import Recorder

            recorder = Recorder()
            result = module.run(
                changes_per_cell=80 if quick else 250, recorder=recorder
            )
            for path in _write_trace_outputs(recorder, args.trace):
                print(f"wrote {path}")
        else:
            result = module.run(changes_per_cell=80 if quick else 250)
    elif args.id == "13":
        from repro.experiments import figure13 as module

        result = module.run(changes_per_cell=80 if quick else 250)
    elif args.id == "14":
        from repro.experiments import figure14 as module

        result = module.run(days=2.0 if quick else 7.0)
    elif args.id == "accuracy":
        from repro.experiments import model_accuracy as module

        result = module.run(history_size=1200 if quick else 6000)
    else:
        from repro.experiments import buildgraph_stability as module

        result = module.run(label_samples=800 if quick else 4000)
    print(module.format_result(result))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.runner import format_table
    from repro.predictor.training import train_models
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import IOS_WORKLOAD

    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=args.seed))
    history = generator.history(args.history)
    _, report = train_models(history, seed=args.seed)
    print(
        format_table(
            ["model", "accuracy", "AUC"],
            [
                ["success", f"{report.success_metrics.accuracy:.3f}",
                 f"{report.success_metrics.auc:.3f}"],
                ["conflict", f"{report.conflict_metrics.accuracy:.3f}",
                 f"{report.conflict_metrics.auc:.3f}"],
            ],
            title=f"trained on {args.history} changes (70/30 split)",
        )
    )
    print("top + features:", ", ".join(report.top_success_features(3)))
    print("top - features:", ", ".join(report.bottom_success_features(2)))
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    from repro.experiments.runner import format_table
    from repro.parallel.workload import mint_cell, run_cell

    step_wall = args.step_wall_ms / 1000.0
    files, changes = mint_cell(seed=args.seed, count=args.changes)
    results = [
        run_cell(files, changes, backend=spec, step_wall_seconds=step_wall)
        for spec in ("process:1", f"process:{args.workers}")
    ]
    serial = results[0]
    rows = [
        [
            result.backend,
            f"{result.wall_seconds:.2f}s",
            f"{serial.wall_seconds / result.wall_seconds:.2f}x",
            str(result.builds_started),
            f"{result.committed}/{len(result.decisions)}",
            result.fingerprint[:12],
        ]
        for result in results
    ]
    print(
        format_table(
            ["backend", "wall", "speedup", "builds", "landed", "fingerprint"],
            rows,
            title=(
                f"{args.changes} changes, {args.step_wall_ms:g} ms/step, "
                f"{args.workers} worker processes"
            ),
        )
    )
    identical = all(r.fingerprint == serial.fingerprint for r in results)
    print(f"state fingerprints identical: {identical}")
    if args.batching:
        batched = run_cell(
            files, changes, step_wall_seconds=step_wall, batching=True
        )
        print(
            f"risk batching: {batched.committed}/{len(batched.decisions)} "
            f"landed in {batched.builds_started} builds "
            f"(plain: {serial.builds_started}), "
            f"{batched.changes_per_hour:.1f}/h vs "
            f"{serial.changes_per_hour:.1f}/h simulated"
        )
    return 0 if identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "quickstart": _cmd_quickstart,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "train": _cmd_train,
        "obs": _cmd_obs,
        "journal": _cmd_journal,
        "parallel": _cmd_parallel,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
