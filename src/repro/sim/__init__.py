"""Discrete-event simulation of SubmitQueue and its baselines.

Replaces the paper's datacenter replay (section 8.1): changes are ingested
at controlled rates, builds occupy workers for sampled durations shaped
like the Figure-9 CDF, and the planner reacts to every arrival and
completion.  The clock and event queue here are what
:class:`~repro.service.core.CoreService`'s pump advances;
:class:`Simulation` schedules a pre-timed stream onto that pump and runs
no loop of its own.  Time is in **minutes** throughout.
"""

from repro.sim.clock import Clock
from repro.sim.events import EventHandle, EventQueue
from repro.sim.arrivals import poisson_arrivals
from repro.sim.durations import BuildDurationModel, ANDROID_DURATIONS, IOS_DURATIONS
from repro.sim.simulator import Simulation

__all__ = [
    "ANDROID_DURATIONS",
    "BuildDurationModel",
    "Clock",
    "EventHandle",
    "EventQueue",
    "IOS_DURATIONS",
    "Simulation",
    "poisson_arrivals",
]
