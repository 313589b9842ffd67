"""repro.buildsys: the Buck-like build system SubmitQueue programs against.

The paper's conflict analyzer (section 5) and build controller (section 6)
consume exactly four build-system capabilities, and this package provides
them over the in-memory snapshots of :mod:`repro.vcs`:

``target`` / ``graph``
    Build targets (``//package:name`` labels) and the dependency DAG with
    dep/rdep traversal, topological ordering, and structure comparison.
``loader``
    ``BUILD``-file parsing (a restricted python-literal dialect), rendering,
    and whole-snapshot graph loading.
``hashing`` / ``delta``
    Algorithm-1 target hashes — a target's hash covers its own sources, its
    declaration, and its transitive dependency hashes — and the
    affected-target delta sets feeding Equation 6.
``steps`` / ``cache`` / ``executor``
    Hermetic synthetic build steps driven by in-source directives
    (``# FAIL:<step>``, ``# CONFLICT:<token>``), an LRU artifact cache keyed
    by target hash x step kind, and a build executor whose cache hits are
    the paper's minimal-build-step elimination (section 6.2).
"""

from repro.buildsys.cache import ArtifactCache, CacheStats
from repro.buildsys.delta import (
    affected_targets,
    delta_names,
    deltas_union,
    equation6_conflict,
)
from repro.buildsys.executor import BuildExecutor, BuildReport
from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.loader import (
    load_build_graph,
    parse_build_file,
    render_build_file,
)
from repro.buildsys.steps import (
    StepResult,
    StepSpec,
    evaluate_step,
    scan_directives,
)
from repro.buildsys.target import Target, target_package, target_short_name

__all__ = [
    "ArtifactCache",
    "BuildExecutor",
    "BuildGraph",
    "BuildReport",
    "CacheStats",
    "StepResult",
    "StepSpec",
    "Target",
    "TargetHasher",
    "affected_targets",
    "delta_names",
    "deltas_union",
    "equation6_conflict",
    "evaluate_step",
    "load_build_graph",
    "parse_build_file",
    "render_build_file",
    "scan_directives",
    "target_package",
    "target_short_name",
]
