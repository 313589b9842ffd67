"""repro: a reproduction of "Keeping Master Green at Scale" (EuroSys '19).

The package implements Uber's SubmitQueue — a change-management system
that keeps a monorepo mainline always green at thousands of commits per
day — together with every substrate it depends on and every baseline the
paper evaluates against.

Quickstart::

    from repro import quickstart_components

    sim, stream = quickstart_components(rate_per_hour=300, count=200,
                                        workers=100)
    summary = sim.run(stream)  # a repro.metrics.RunSummary
    print(summary.committed, summary.throughput_per_hour,
          summary.turnaround["p95"])

Package map (see DESIGN.md for the full inventory):

===================  ====================================================
``repro.vcs``         in-memory monorepo (commits, patches, mainline)
``repro.buildsys``    Buck-like build system (targets, hashing, executor)
``repro.changes``     changes/revisions/developers, lifecycle, queues
``repro.conflict``    target-hash conflict analysis (Eq. 6, union graph)
``repro.speculation`` speculation graph, Equations 1-5, build selection
``repro.predictor``   logistic-regression success/conflict models
``repro.planner``     planner engine, build controller
``repro.strategies``  SubmitQueue / Oracle / baselines
``repro.sim``         discrete-event simulator
``repro.workload``    synthetic monorepos and change streams
``repro.metrics``     run summary, percentiles, CDFs, greenness tracking
``repro.service``     the submit/status API facade
``repro.experiments`` one module per paper figure
===================  ====================================================
"""

from __future__ import annotations

__version__ = "1.0.0"


def quickstart_components(
    rate_per_hour: float = 300.0,
    count: int = 200,
    workers: int = 100,
    seed: int = 0,
    recorder=None,
):
    """Build a ready-to-run SubmitQueue simulation on a synthetic workload.

    Returns ``(simulation, stream)``; call ``simulation.run(stream)``.
    Uses the oracle predictor for zero-setup determinism — see
    ``examples/`` for training a learned predictor.  Pass a
    :class:`repro.obs.Recorder` to trace the run.
    """
    from dataclasses import replace

    from repro.changes.truth import potential_conflict
    from repro.obs.recorder import NULL_RECORDER
    from repro.planner.controller import LabelBuildController
    from repro.predictor.predictors import OraclePredictor
    from repro.sim.simulator import Simulation
    from repro.strategies.submitqueue import SubmitQueueStrategy
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import IOS_WORKLOAD

    generator = WorkloadGenerator(replace(IOS_WORKLOAD, seed=seed))
    stream = generator.stream(rate_per_hour, count)
    simulation = Simulation(
        strategy=SubmitQueueStrategy(OraclePredictor()),
        controller=LabelBuildController(),
        workers=workers,
        conflict_predicate=potential_conflict,
        recorder=recorder if recorder is not None else NULL_RECORDER,
    )
    return simulation, stream
