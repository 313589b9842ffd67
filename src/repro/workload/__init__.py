"""Synthetic workloads.

Substitutes for Uber's production change streams (9 months of iOS/Android
changes):

* :mod:`repro.workload.generator` — label-mode change streams whose
  conflict behaviour matches Figure 1, staleness behaviour matches
  Figure 2, and build durations match Figure 9;
* :mod:`repro.workload.repo_synth` — synthetic monorepos (BUILD files +
  sources) and full-stack changes with real patches, for integration
  tests and examples;
* :mod:`repro.workload.scenarios` — named parameter presets (iOS-like
  deep graph, backend-like wide graph).
"""

from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.repo_synth import (
    MonorepoSpec,
    SyntheticMonorepo,
    mint_partitioned_cell,
)
from repro.workload.scenarios import BACKEND_WORKLOAD, IOS_WORKLOAD

__all__ = [
    "BACKEND_WORKLOAD",
    "IOS_WORKLOAD",
    "MonorepoSpec",
    "SyntheticMonorepo",
    "WorkloadConfig",
    "WorkloadGenerator",
    "mint_partitioned_cell",
]
