"""Target-graph-partitioned sharding: partitioner, queue, analyzer, service.

Covers the tentpole invariants — deterministic partitioning, incremental
refresh, path-based routing with straddler semantics, the
``create_queue_backend`` seam, skipped-pair accounting, and the
cross-partition ancestor-edge invariant (with and without risk batching)
— plus the satellite fixes (``earlier_than`` pivot scan, shard metrics in
``/slo`` and the report).  Spec validation and the journaled config live
in ``test_config_surface.py``.
"""

import copy
import subprocess
import sys

import pytest

from repro.buildsys.loader import load_build_graph
from repro.changes.change import Change, next_change_id, next_revision_id
from repro.changes.queue import PendingQueue
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.errors import ShardingError
from repro.journal import fingerprint_digest
from repro.obs.recorder import Recorder
from repro.obs.slo import compute_slo
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.sharding import (
    STRADDLER_SHARD,
    PartitionedPendingQueue,
    ShardedConflictAnalyzer,
    TargetPartitioner,
    create_queue_backend,
)
from repro.sharding.workload import mint_partitioned_cell
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: Two islands, materialized once; every test deep-copies nothing — the
#: minted changes are only submitted to throwaway services.
_ISLANDS = [
    SyntheticMonorepo(
        MonorepoSpec(layers=(2, 3, 2), fan_in=2, package_prefix=f"island{k}/"),
        seed=31 + k,
    )
    for k in range(2)
]
FILES = {}
for _synth in _ISLANDS:
    FILES.update(_synth.repo.snapshot().to_dict())
GRAPH = load_build_graph(FILES)


def _clean(island, slot=0, source_index=0):
    synth = _ISLANDS[island]
    targets = synth.target_names()
    return synth.make_clean_change(
        target_name=targets[slot % len(targets)], source_index=source_index
    )


def _straddler(path_a, path_b, description="straddler"):
    """A change editing one path in each island (appends, no failures)."""
    patch = Patch.modifying(
        {
            path_a: FILES[path_a] + "# straddle A\n",
            path_b: FILES[path_b] + "# straddle B\n",
        },
        base={path_a: FILES[path_a], path_b: FILES[path_b]},
    )
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=_ISLANDS[0].developers[0],
        patch=patch,
        submitted_at=0.0,
        description=description,
    )


def _service(queue_backend=None, strategy=None, recorder=None):
    kwargs = {"recorder": recorder} if recorder is not None else {}
    return CoreService(
        Repository(dict(FILES)),
        strategy
        or SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=CoreServiceConfig(workers=4, queue_backend=queue_backend),
        **kwargs,
    )


# -- partitioner ---------------------------------------------------------------


class TestTargetPartitioner:
    def test_islands_are_components(self):
        partitioner = TargetPartitioner(GRAPH, max_partitions=4)
        assert partitioner.component_count() == 2
        for k, synth in enumerate(_ISLANDS):
            bins = {
                partitioner.shard_of_target(name)
                for name in synth.target_names()
            }
            assert len(bins) == 1, f"island{k} split across bins"
        # Two equal components over >= 2 bins land apart (LPT packing).
        assert partitioner.shard_of_target(
            _ISLANDS[0].target_names()[0]
        ) != partitioner.shard_of_target(_ISLANDS[1].target_names()[0])

    def test_deterministic(self):
        first = TargetPartitioner(GRAPH, max_partitions=3)
        second = TargetPartitioner(load_build_graph(dict(FILES)), max_partitions=3)
        for name in GRAPH.names():
            assert first.shard_of_target(name) == second.shard_of_target(name)
        assert first.bin_target_counts() == second.bin_target_counts()

    def test_more_components_than_bins_merge(self):
        partitioner = TargetPartitioner(GRAPH, max_partitions=1)
        assert partitioner.shard_count == 1
        assert {
            partitioner.shard_of_target(name) for name in GRAPH.names()
        } == {0}

    def test_unknown_target_raises(self):
        partitioner = TargetPartitioner(GRAPH)
        with pytest.raises(ShardingError):
            partitioner.shard_of_target("//nowhere:lib")

    def test_zero_partitions_rejected(self):
        with pytest.raises(ShardingError):
            TargetPartitioner(GRAPH, max_partitions=0)

    def test_refresh_noop_keeps_version(self):
        partitioner = TargetPartitioner(GRAPH, max_partitions=2)
        version = partitioner.version
        assert partitioner.refresh(load_build_graph(dict(FILES))) == 0
        assert partitioner.version == version

    def test_refresh_reclusters_only_touched_island(self):
        partitioner = TargetPartitioner(GRAPH, max_partitions=2)
        island1_bin = partitioner.shard_of_target(
            _ISLANDS[1].target_names()[0]
        )
        structural = _ISLANDS[0].make_structural_change()
        new_snapshot = structural.patch.apply(FILES)
        new_graph = load_build_graph(dict(new_snapshot))
        recomputed = partitioner.refresh(new_graph)
        assert recomputed == 1  # island0's (grown) component only
        assert partitioner.stats.components_reused >= 1
        assert partitioner.version == 1
        # Island 1 kept its bin; the generated target joined island 0.
        assert (
            partitioner.shard_of_target(_ISLANDS[1].target_names()[0])
            == island1_bin
        )
        generated = next(
            name for name in new_graph.names() if "generated" in name
        )
        assert partitioner.shard_of_target(
            generated
        ) == partitioner.shard_of_target(_ISLANDS[0].target_names()[0])


# -- routing -------------------------------------------------------------------


class TestRouting:
    def _analyzer(self, shards=2):
        return ShardedConflictAnalyzer(dict(FILES), shards=shards)

    def test_island_changes_route_apart(self):
        analyzer = self._analyzer()
        a = _clean(0)
        b = _clean(1)
        assert analyzer.shard_of(a) != analyzer.shard_of(b)
        assert analyzer.shard_of(a) != STRADDLER_SHARD
        assert analyzer.shard_of(b) != STRADDLER_SHARD

    def test_cross_island_change_straddles(self):
        analyzer = self._analyzer()
        t = _ISLANDS[0].target_names()[0]
        u = _ISLANDS[1].target_names()[0]
        change = _straddler(
            _ISLANDS[0].graph.target(t).srcs[0],
            _ISLANDS[1].graph.target(u).srcs[0],
        )
        assert analyzer.shard_of(change) == STRADDLER_SHARD

    def test_build_file_change_straddles(self):
        analyzer = self._analyzer()
        structural = _ISLANDS[0].make_structural_change()
        assert analyzer.shard_of(structural) == STRADDLER_SHARD

    def test_unowned_path_straddles(self):
        analyzer = self._analyzer()
        change = Change(
            change_id=next_change_id(),
            revision_id=next_revision_id(),
            developer=_ISLANDS[0].developers[0],
            patch=Patch.adding({"docs/README.md": "hello\n"}),
            submitted_at=0.0,
            description="docs only",
        )
        assert analyzer.shard_of(change) == STRADDLER_SHARD

    def test_cross_shard_conflict_short_circuits(self):
        analyzer = self._analyzer()
        a = _clean(0)
        b = _clean(1)
        assert analyzer.conflict(a, b) is False
        assert analyzer.pair_checks_skipped == 1
        # The skip never even analyzed the changes.
        assert not analyzer.cached_change_ids()


# -- partitioned queue ---------------------------------------------------------


class TestPartitionedQueue:
    def _queue(self):
        analyzer = ShardedConflictAnalyzer(dict(FILES), shards=2)
        return (
            analyzer,
            PartitionedPendingQueue(analyzer, shard_count=2),
        )

    def test_global_order_preserved(self):
        _, queue = self._queue()
        changes = [_clean(0), _clean(1), _clean(0, slot=1)]
        for change in changes:
            queue.enqueue(change)
        assert [c.change_id for c in queue.all_pending()] == [
            c.change_id for c in changes
        ]
        assert queue.all_pending() == queue.in_order()

    def test_conflict_candidates_scope(self):
        analyzer, queue = self._queue()
        a0 = _clean(0)
        b0 = _clean(1)
        t = _ISLANDS[0].target_names()[0]
        u = _ISLANDS[1].target_names()[0]
        straddler = _straddler(
            _ISLANDS[0].graph.target(t).srcs[0],
            _ISLANDS[1].graph.target(u).srcs[0],
        )
        a1 = _clean(0, slot=1)
        for change in (a0, b0, straddler, a1):
            queue.enqueue(change)
        # Same island + the straddler, in submit order; b0 is skipped.
        assert queue.conflict_candidates(a1) == [
            a0.change_id,
            straddler.change_id,
        ]
        # A straddler is tested against everything pending.
        assert queue.conflict_candidates(straddler) == [
            a0.change_id,
            b0.change_id,
            a1.change_id,
        ]
        depths = queue.shard_depths()
        assert depths[STRADDLER_SHARD] == 1
        assert sorted(
            depth for shard, depth in depths.items() if shard != STRADDLER_SHARD
        ) == [1, 2]
        assert queue.imbalance() == 1

    def test_reroutes_after_repartition(self):
        analyzer, queue = self._queue()
        change = _clean(0)
        queue.enqueue(change)
        before = queue.shard_of(change.change_id)
        assert before != STRADDLER_SHARD
        # A structural head advance re-partitions; the queue re-syncs
        # lazily off the bumped version.
        structural = _ISLANDS[0].make_structural_change()
        new_snapshot = structural.patch.apply(FILES)
        analyzer.advance_base(dict(new_snapshot), None)
        assert analyzer.version > 0
        assert queue.shard_of(change.change_id) in range(queue.shard_count)

    def test_remove_compacts_members(self):
        _, queue = self._queue()
        changes = [_clean(0, slot=s, source_index=1) for s in range(4)]
        for change in changes:
            queue.enqueue(change)
        for change in changes[:3]:
            queue.remove(change.change_id)
        assert [c.change_id for c in queue.all_pending()] == [
            changes[3].change_id
        ]
        assert queue.conflict_candidates(changes[3]) == []


# -- pending-queue satellites --------------------------------------------------


class TestPendingQueueSatellites:
    def test_earlier_than_stops_at_pivot(self):
        queue = PendingQueue()
        changes = [_clean(0, slot=s) for s in range(5)]
        for change in changes:
            queue.enqueue(change)
        pivot = changes[2]
        earlier = queue.earlier_than(pivot.change_id)
        assert [c.change_id for c in earlier] == [
            changes[0].change_id,
            changes[1].change_id,
        ]
        assert queue.earlier_than(changes[0].change_id) == []


# -- backend seam --------------------------------------------------------------


class TestQueueBackendSeam:
    def test_spec_yields_matched_pair(self):
        analyzer, queue = create_queue_backend("sharded:3", dict(FILES))
        assert isinstance(analyzer, ShardedConflictAnalyzer)
        assert isinstance(queue, PartitionedPendingQueue)
        assert queue.router is analyzer
        assert analyzer.shard_count == queue.shard_count == 3
        default, _ = create_queue_backend("sharded", dict(FILES))
        assert default.shard_count == 4


class TestSkippedPairAccounting:
    def test_performed_plus_skipped_equals_monolithic_on_8_islands(self):
        """Satellite: the narrowing point counts the pairs it removes."""
        files, changes = mint_partitioned_cell(islands=8, count=64, seed=1911)
        mono = ConflictAnalyzer(dict(files))
        mono_graph = ConflictGraph(mono.conflict)
        for change in copy.deepcopy(changes):
            mono_graph.add(change)
        recorder = Recorder()
        analyzer, queue = create_queue_backend("sharded:8", dict(files), recorder)
        graph = ConflictGraph(analyzer.conflict)
        for change in copy.deepcopy(changes):
            queue.enqueue(change)  # the planner's order: enqueue, then sweep
            graph.add(change, queue.conflict_candidates(change))
        pairs = len(changes) * (len(changes) - 1) // 2
        assert mono.stats.checks == pairs
        assert 0 < analyzer.stats.checks < pairs
        assert analyzer.pair_checks_skipped > 0
        assert analyzer.stats.checks + analyzer.pair_checks_skipped == pairs
        assert graph.edge_count() == mono_graph.edge_count()
        skipped = recorder.registry.counter("shard_pair_checks_skipped_total")
        assert skipped.value == analyzer.pair_checks_skipped


# -- service integration -------------------------------------------------------


class TestShardedService:
    def test_fingerprint_matches_monolithic(self):
        files, changes = mint_partitioned_cell(islands=3, count=12, seed=5)
        traces = []
        for backend in (None, "sharded:3"):
            service = CoreService(
                Repository(dict(files)),
                SubmitQueueStrategy(
                    StaticPredictor(success=0.9, conflict=0.05)
                ),
                config=CoreServiceConfig(workers=4, queue_backend=backend),
            )
            for change in copy.deepcopy(changes):
                service.submit(change)
            decisions = service.pump()
            traces.append(
                (
                    tuple((d.change_id, d.committed, d.at) for d in decisions),
                    fingerprint_digest(service),
                )
            )
            service.close()
        assert traces[1] == traces[0]

    def test_sharding_narrows_the_sweep(self):
        mono = _service()
        shard = _service(queue_backend="sharded:2")
        changes = [
            _clean(s % 2, slot=s, source_index=1) for s in range(8)
        ]
        for service in (mono, shard):
            for change in copy.deepcopy(changes):
                service.submit(change)
        assert shard.analyzer.stats.checks < mono.analyzer.stats.checks
        mono_d = mono.pump()
        shard_d = shard.pump()
        assert [(d.change_id, d.committed) for d in mono_d] == [
            (d.change_id, d.committed) for d in shard_d
        ]
        mono.close()
        shard.close()

    def test_straddler_honors_ancestor_edges_in_both_partitions(self):
        """Satellite: a two-partition change speculates on members of both."""
        t = _ISLANDS[0].target_names()[-1]
        u = _ISLANDS[1].target_names()[-1]
        ancestors_seen = {}
        for backend in (None, "sharded:2"):
            service = _service(queue_backend=backend)
            a = _clean(0, slot=len(_ISLANDS[0].target_names()) - 1)
            b = _clean(1, slot=len(_ISLANDS[1].target_names()) - 1)
            straddler = _straddler(
                _ISLANDS[0].graph.target(t).srcs[1],
                _ISLANDS[1].graph.target(u).srcs[1],
            )
            service.submit(a)
            service.submit(b)
            service.submit(straddler)
            assert service.planner.ancestors[straddler.change_id] == [
                a.change_id,
                b.change_id,
            ], f"straddler must speculate on both partitions ({backend})"
            decisions = service.pump()
            assert all(d.committed for d in decisions)
            assert all(service.repo.mainline_green_flags())
            ancestors_seen[backend] = len(decisions)
            service.close()
        assert ancestors_seen[None] == ancestors_seen["sharded:2"]

    def test_straddler_invariant_under_batching(self):
        """Same invariant with the risk-batching strategy driving."""
        from repro.strategies.risk_batch import RiskBatchStrategy

        t = _ISLANDS[0].target_names()[-1]
        u = _ISLANDS[1].target_names()[-1]
        traces = []
        for backend in (None, "sharded:2"):
            service = _service(
                queue_backend=backend,
                strategy=RiskBatchStrategy(
                    StaticPredictor(success=0.9, conflict=0.05)
                ),
            )
            a = _clean(0, slot=len(_ISLANDS[0].target_names()) - 1)
            b = _clean(1, slot=len(_ISLANDS[1].target_names()) - 1)
            straddler = _straddler(
                _ISLANDS[0].graph.target(t).srcs[1],
                _ISLANDS[1].graph.target(u).srcs[1],
            )
            service.submit(a)
            service.submit(b)
            service.submit(straddler)
            assert service.planner.ancestors[straddler.change_id] == [
                a.change_id,
                b.change_id,
            ]
            decisions = service.pump()
            traces.append(tuple((d.change_id, d.committed) for d in decisions))
            assert all(service.repo.mainline_green_flags())
            service.close()
        # Batching decisions too are identical across queue backends
        # (ids differ run to run, so compare verdicts positionally).
        assert [ok for _, ok in traces[0]] == [ok for _, ok in traces[1]]
        assert len(traces[0]) == len(traces[1]) == 3

    def test_structural_commit_repartitions_pending(self):
        service = _service(queue_backend="sharded:2")
        structural = _ISLANDS[0].make_structural_change()
        service.submit(structural)
        decisions = service.pump()
        assert all(d.committed for d in decisions)
        # The committed target graph grew; the analyzer advances lazily on
        # the next pair check (two same-island submissions force one), and
        # the advance runs the incremental partitioner refresh.
        service.submit(_clean(0))
        service.submit(_clean(0, slot=1))
        decisions = service.pump()
        assert all(d.committed for d in decisions)
        assert service.analyzer.partitioner.stats.refreshes >= 1
        generated = next(
            name
            for name in service.analyzer.partitioner.graph.names()
            if "generated" in name
        )
        assert service.analyzer.partitioner.shard_of_target(
            generated
        ) == service.analyzer.partitioner.shard_of_target(
            _ISLANDS[0].target_names()[0]
        )
        assert all(service.repo.mainline_green_flags())
        service.close()


# -- observability -------------------------------------------------------------


class TestShardObservability:
    def _run_with_recorder(self, backend):
        recorder = Recorder()
        service = _service(queue_backend=backend, recorder=recorder)
        for change in (_clean(0), _clean(1), _clean(0, slot=1)):
            service.submit(change)
        service.pump()
        service.close()
        return recorder

    def test_shard_metrics_exported(self):
        recorder = self._run_with_recorder("sharded:2")
        text = recorder.prometheus_text()
        assert "shard_changes_total" in text
        assert "shard_imbalance" in text

    def test_slo_grows_sharding_section(self):
        recorder = self._run_with_recorder("sharded:2")
        slo = compute_slo(recorder.tracer.snapshot_records())
        assert "sharding" in slo
        section = slo["sharding"]
        assert sum(section["changes_routed"].values()) == 3
        assert section["straddlers"] == 0

    def test_monolithic_slo_unchanged(self):
        recorder = self._run_with_recorder(None)
        slo = compute_slo(recorder.tracer.snapshot_records())
        assert "sharding" not in slo

    def test_report_lists_shard_metrics(self, tmp_path):
        from repro.obs.inspect import format_report, load_trace

        recorder = self._run_with_recorder("sharded:2")
        path = str(tmp_path / "run.jsonl")
        recorder.write_jsonl(path)
        report = format_report(load_trace(path))
        assert "sharded submissions routed" in report


# -- dependency hygiene --------------------------------------------------------


def test_default_path_never_imports_sharding():
    """A monolithic service run must not load repro.sharding."""
    code = (
        "import sys\n"
        "from repro.service.core import CoreService, CoreServiceConfig\n"
        "from repro.strategies.submitqueue import SubmitQueueStrategy\n"
        "from repro.predictor.predictors import StaticPredictor\n"
        "from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo\n"
        "synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 2), fan_in=2), seed=1)\n"
        "service = CoreService(\n"
        "    synth.repo,\n"
        "    SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),\n"
        ")\n"
        "service.submit(synth.make_clean_change(target_name=synth.target_names()[0]))\n"
        "service.pump()\n"
        "leaked = [m for m in sys.modules if m.startswith('repro.sharding')]\n"
        "assert not leaked, f'default path imported {leaked}'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
