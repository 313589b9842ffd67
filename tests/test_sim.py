"""Unit tests for the simulation substrate (clock, events, arrivals,
durations) and the end-to-end simulator."""

import numpy as np
import pytest

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.truth import potential_conflict
from repro.errors import ClockError, SimulationError
from repro.planner.controller import LabelBuildController
from repro.experiments.runner import strategy_factories
from repro.service.core import CoreService, CoreServiceConfig
from repro.sim.arrivals import poisson_arrivals
from repro.sim.clock import Clock
from repro.sim.durations import BuildDurationModel, IOS_DURATIONS
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulation
from repro.strategies.optimistic import OptimisticStrategy
from repro.strategies.oracle import OracleStrategy
from repro.vcs.repository import Repository
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


class TestClock:
    def test_advance(self):
        clock = Clock()
        clock.advance_to(5.0)
        clock.advance_to(7.5)
        assert clock.now == 7.5

    def test_no_rewind(self):
        clock = Clock(10.0)
        with pytest.raises(ClockError):
            clock.advance_to(9.0)


class TestEventQueue:
    def test_time_order(self):
        queue = EventQueue()
        queue.push(5.0, "b")
        queue.push(1.0, "a")
        queue.push(9.0, "c")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_within_timestamp(self):
        queue = EventQueue()
        queue.push(1.0, "first")
        queue.push(1.0, "second")
        assert queue.pop().payload == "first"
        assert queue.pop().payload == "second"

    def test_cancellation(self):
        queue = EventQueue()
        handle = queue.push(1.0, "gone")
        queue.push(2.0, "kept")
        queue.cancel(handle)
        assert len(queue) == 1
        assert queue.pop().payload == "kept"
        assert queue.pop() is None

    def test_double_cancel_idempotent(self):
        queue = EventQueue()
        handle = queue.push(1.0, "x")
        queue.cancel(handle)
        queue.cancel(handle)
        assert len(queue) == 0


class TestArrivals:

    def test_poisson_mean_gap(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(120.0, 4000, rng=rng)
        gaps = np.diff([0.0] + times)
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 3)
        with pytest.raises(ValueError):
            poisson_arrivals(10, -1)


class TestDurations:
    def test_median_matches_config(self):
        rng = np.random.default_rng(1)
        model = BuildDurationModel(median=30.0, p90=60.0)
        draws = model.sample(rng, size=20000)
        assert float(np.median(draws)) == pytest.approx(30.0, rel=0.05)

    def test_clipping(self):
        rng = np.random.default_rng(2)
        draws = IOS_DURATIONS.sample(rng, size=5000)
        assert float(np.min(draws)) >= IOS_DURATIONS.minimum
        assert float(np.max(draws)) <= IOS_DURATIONS.maximum

    def test_cdf_monotone(self):
        grid = [5, 10, 20, 40, 80, 119]
        series = IOS_DURATIONS.cdf_series(grid)
        assert series == sorted(series)
        assert IOS_DURATIONS.cdf(1.0) == 0.0
        assert IOS_DURATIONS.cdf(500.0) == 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BuildDurationModel(median=60.0, p90=30.0)


def small_stream(count=40, rate=120.0, seed=5):
    config = WorkloadConfig(
        seed=seed,
        n_developers=20,
        target_universe=400,
        zipf_exponent=0.9,
        mean_targets_per_change=2.0,
        real_conflict_rate=0.05,
        base_success_rate=0.95,
    )
    return WorkloadGenerator(config).stream(rate, count)


class TestSimulation:
    def test_all_changes_decided(self):
        stream = small_stream()
        sim = Simulation(
            strategy=OracleStrategy(),
            controller=LabelBuildController(),
            workers=16,
            conflict_predicate=potential_conflict,
        )
        result = sim.run(stream)
        assert result.submitted == 40
        assert result.committed + result.rejected == 40
        assert len(result.turnarounds) == 40
        assert all(t >= 0 for t in result.turnarounds)

    def test_throughput_positive(self):
        result = Simulation(
            strategy=OracleStrategy(),
            controller=LabelBuildController(),
            workers=16,
            conflict_predicate=potential_conflict,
        ).run(small_stream())
        assert result.throughput_per_hour > 0
        assert 0 < result.utilization <= 1.0

    def test_deterministic_given_same_stream(self):
        stream = small_stream(seed=9)

        def run():
            return Simulation(
                strategy=OracleStrategy(),
                controller=LabelBuildController(),
                workers=8,
                conflict_predicate=potential_conflict,
            ).run(list(stream))

        first, second = run(), run()
        assert first.turnarounds == second.turnarounds
        assert first.committed == second.committed

    def test_more_workers_never_hurt_oracle(self):
        stream = small_stream(count=60, rate=240.0, seed=11)
        few = Simulation(
            strategy=OracleStrategy(),
            controller=LabelBuildController(),
            workers=2,
            conflict_predicate=potential_conflict,
        ).run(list(stream))
        many = Simulation(
            strategy=OracleStrategy(),
            controller=LabelBuildController(),
            workers=64,
            conflict_predicate=potential_conflict,
        ).run(list(stream))
        assert many.makespan_minutes <= few.makespan_minutes
        assert many.turnaround["p95"] <= few.turnaround["p95"]

    def test_empty_stream(self):
        result = Simulation(
            strategy=OracleStrategy(),
            controller=LabelBuildController(),
            workers=2,
            conflict_predicate=potential_conflict,
        ).run([])
        assert result.submitted == 0
        assert result.makespan_minutes == 0.0

    def test_max_minutes_raises(self):
        with pytest.raises(SimulationError):
            Simulation(
                strategy=OracleStrategy(),
                controller=LabelBuildController(),
                workers=2,
                conflict_predicate=potential_conflict,
                max_minutes=10.0,
            ).run(small_stream())


STRATEGIES = {**strategy_factories(), "Oracle": OracleStrategy}
WORKERS = 6


def label_simulation(strategy):
    return Simulation(
        strategy=strategy,
        controller=LabelBuildController(),
        workers=WORKERS,
        conflict_predicate=potential_conflict,
    )


def label_service(strategy):
    """A hand-built core service over labelled changes."""
    return CoreService(
        Repository(),
        strategy,
        CoreServiceConfig(workers=WORKERS),
        controller=LabelBuildController(),
        conflict_predicate=potential_conflict,
    )


def outcome(planner):
    """What a run decided and what it cost, for equality checks."""
    stats = planner.stats
    return (
        planner.decisions(),
        stats.builds_started,
        stats.builds_aborted,
        {r.change_id: r.turnaround for r in planner.records.values()},
    )


@pytest.mark.parametrize("name", sorted(STRATEGIES))
class TestOneDriver:
    """``Simulation`` is an arrival schedule over ``CoreService``: the
    same stream decides identically whichever of the two a caller holds."""

    def test_simulation_equals_hand_driven_service(self, name):
        # A same-instant burst of eight, then spaced arrivals.
        spaced = small_stream(count=30, rate=90.0, seed=7)
        stream = [(0.0, change) for _, change in spaced[:8]] + spaced[8:]
        sim = label_simulation(STRATEGIES[name]())
        sim.run(list(stream))
        service = label_service(STRATEGIES[name]())
        for at, change in stream:
            service.enqueue(change, at=at)
        decisions = service.pump()
        assert len(decisions) == 30
        assert sim.planner.decisions() == decisions
        assert outcome(sim.planner) == outcome(service.planner)

    def test_burst_at_zero_equals_submit_calls(self, name):
        changes = [change for _, change in small_stream(count=12, seed=3)]
        sim = label_simulation(STRATEGIES[name]())
        sim.run([(0.0, change) for change in changes])
        service = label_service(STRATEGIES[name]())
        for change in changes:
            service.submit(change)
        service.pump()
        assert outcome(sim.planner) == outcome(service.planner)

    def test_no_plan_without_an_event(self, name):
        stream = small_stream(count=120, rate=180.0, seed=13)
        sim = label_simulation(STRATEGIES[name]())
        result = sim.run(stream)
        stats = sim.planner.stats
        assert result.submitted == 120
        assert stats.plan_calls == 120 + stats.builds_completed


class _ScriptedReorders(OptimisticStrategy):
    """The optimistic chain, with reorders proposed at given plan calls."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.plans = 0

    def propose_reorders(self, view):
        self.plans += 1
        return self.script.get(self.plans, [])


class TestStallStep:
    def test_stall_decides_what_a_reorder_left_decidable(self):
        """``second`` jumps ``first`` (plan 2); once both builds have
        finished, ``first`` jumps back (plan 4) and is ready with its
        decisive build done.  No build is left to start and no completion
        will come, so the stall step decides it, and the stall guard then
        forces ``second``'s decisive build."""
        first, second = (
            Change(
                change_id=next_change_id(),
                revision_id="R1",
                developer=Developer("dev1"),
                ground_truth=GroundTruth(
                    individually_ok=False, target_names=frozenset({"//x"})
                ),
                build_duration=30.0,
            )
            for _ in range(2)
        )
        strategy = _ScriptedReorders(
            {
                2: [(first.change_id, second.change_id)],
                4: [(second.change_id, first.change_id)],
            }
        )
        service = label_service(strategy)
        service.submit(first)
        service.submit(second)
        decisions = service.pump()
        assert [(d.change_id, d.committed, d.at) for d in decisions] == [
            (first.change_id, False, 30.0),
            (second.change_id, False, 60.0),
        ]
