"""Named workload scenarios matching the paper's two monorepos.

* ``ios`` — deep dependency graph, hot shared leaves, dense conflict
  graph, 7.9 % structural-change rate (the repo the evaluation replays);
* ``backend`` — wide graph, cooler targets, sparse conflicts, 1.6 %
  structural-change rate (mentioned in section 5.2).
"""

from __future__ import annotations

from repro.sim.durations import ANDROID_DURATIONS, IOS_DURATIONS
from repro.workload.generator import WorkloadConfig

# Densities are calibrated so that a change pending alongside ~200-300
# concurrent others sees on the order of 2-16 potential conflicts — the
# x-axis range the paper actually observed in Figure 1 — while keeping the
# population commit rate in the production-plausible 70-90 % band.
IOS_WORKLOAD = WorkloadConfig(
    seed=1,
    n_developers=300,
    target_universe=30000,
    zipf_exponent=0.9,
    mean_targets_per_change=2.0,
    hub_targets=6,
    hub_popularity=0.06,
    real_conflict_rate=0.030,
    buildgraph_change_rate=0.079,
    base_success_rate=0.975,
    durations=IOS_DURATIONS,
)

ANDROID_WORKLOAD = WorkloadConfig(
    seed=2,
    n_developers=300,
    target_universe=32000,
    zipf_exponent=0.9,
    mean_targets_per_change=2.0,
    hub_targets=6,
    hub_popularity=0.055,
    real_conflict_rate=0.028,
    buildgraph_change_rate=0.07,
    base_success_rate=0.975,
    durations=ANDROID_DURATIONS,
)

BACKEND_WORKLOAD = WorkloadConfig(
    seed=3,
    n_developers=500,
    target_universe=60000,
    zipf_exponent=0.8,
    mean_targets_per_change=2.2,
    hub_targets=4,
    hub_popularity=0.02,
    real_conflict_rate=0.03,
    buildgraph_change_rate=0.016,
    base_success_rate=0.92,
    durations=IOS_DURATIONS,
)
