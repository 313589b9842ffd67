"""The analyzer's candidate index: a narrower sweep, the same edges.

``ConflictAnalyzer.conflict_candidates`` names the pending changes a new
change can conflict with; the planner checks only those.  The reference
everywhere is the full sweep — the same analyzer asked about every
pending pair — which a service runs when it is handed a
``conflict_predicate`` (:func:`full_sweep_service`).
"""

import copy
import json

import pytest

from repro.buildsys.executor import BuildContext
from repro.changes.change import Change, next_change_id, next_revision_id
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.journal import JournalWriter, fingerprint_digest, recover
from repro.journal.framing import encode_record
from repro.journal.sink import events_path
from repro.obs.inspect import format_report, load_trace
from repro.obs.recorder import Recorder
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.risk_batch import RiskBatchStrategy
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository
from repro.workload.repo_synth import (
    MonorepoSpec,
    SyntheticMonorepo,
    mint_partitioned_cell,
)

from .conftest import full_sweep_service

#: Two islands in one snapshot: disjoint connected components, so a
#: change confined to one island never conflicts with the other's.
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


def _clean(island, slot=0, source_index=0):
    synth = _ISLANDS[island]
    targets = synth.target_names()
    return synth.make_clean_change(
        target_name=targets[slot % len(targets)], source_index=source_index
    )


def _change(patch, description):
    return Change(
        change_id=next_change_id(),
        revision_id=next_revision_id(),
        developer=_ISLANDS[0].developers[0],
        patch=patch,
        submitted_at=0.0,
        description=description,
    )


def _cross_island(slot, source_index):
    """A clean change editing one source of target ``slot`` in each island."""
    paths = [
        synth.graph.target(synth.target_names()[slot]).srcs[source_index]
        for synth in _ISLANDS
    ]
    return _change(
        Patch.modifying(
            {path: FILES[path] + "# cross\n" for path in paths},
            base={path: FILES[path] for path in paths},
        ),
        "cross-island",
    )


def _strategy(batching=False):
    predictor = StaticPredictor(success=0.9, conflict=0.05)
    return RiskBatchStrategy(predictor) if batching else SubmitQueueStrategy(predictor)


def _service(reference=False, batching=False, recorder=None, journal=None):
    kwargs = {"recorder": recorder} if recorder is not None else {}
    build = full_sweep_service if reference else CoreService
    return build(
        Repository(dict(FILES)),
        _strategy(batching),
        config=CoreServiceConfig(workers=4, journal=journal),
        **kwargs,
    )


# -- the look-up ---------------------------------------------------------------


class TestCandidates:
    def test_scope_is_shared_names_paths_and_the_escape_sets(self):
        analyzer = ConflictAnalyzer(BuildContext.load(dict(FILES)))
        a0 = _clean(0)
        b0 = _clean(1)
        cross = _cross_island(slot=0, source_index=1)
        structural = _ISLANDS[1].make_structural_change()
        unowned = _change(Patch.adding({"docs/README.md": "hello\n"}), "docs")
        stale = _change(
            Patch.modifying({"docs/gone.md": "x\n"}, base={"docs/gone.md": "y\n"}),
            "does not apply",
        )
        pending = [a0, b0, cross, structural, unowned, stale]
        a1 = _clean(0, slot=1)
        # Same island and the cross-island change (shared names), the
        # structural and the un-analysable one; never b0 or the docs edit.
        assert analyzer.conflict_candidates(a1, pending) == [
            a0.change_id,
            cross.change_id,
            structural.change_id,
            stale.change_id,
        ]
        assert analyzer.stats.skipped == 2
        # A path no target owns taints nothing, yet overlaps textually.
        docs_too = _change(Patch.adding({"docs/README.md": "other\n"}), "docs 2")
        assert analyzer.conflict(docs_too, unowned)
        assert unowned.change_id in analyzer.conflict_candidates(docs_too, pending)

    def test_structural_or_unanalysable_newcomer_sweeps_all(self):
        analyzer = ConflictAnalyzer(BuildContext.load(dict(FILES)))
        pending = [_clean(0), _clean(1)]
        structural = _ISLANDS[0].make_structural_change()
        assert analyzer.conflict_candidates(structural, pending) is None
        stale = _change(
            Patch.modifying({"docs/gone.md": "x\n"}, base={"docs/gone.md": "y\n"}),
            "does not apply",
        )
        assert analyzer.conflict_candidates(stale, pending) is None
        assert analyzer.stats.skipped == 0

    def test_nothing_pending_analyses_nothing(self):
        analyzer = ConflictAnalyzer(BuildContext.load(dict(FILES)))
        assert analyzer.conflict_candidates(_clean(0), []) is None
        assert analyzer.stats.analyses == 0

    def test_structural_head_advance_reindexes_on_next_sweep(self):
        analyzer = ConflictAnalyzer(BuildContext.load(dict(FILES)))
        a0, b0 = _clean(0), _clean(1)
        assert analyzer.conflict_candidates(b0, [a0]) == []
        structural = _ISLANDS[0].make_structural_change()
        analyzer.advance_base(
            analyzer.base.derive_stack((structural.patch,)).as_root(),
            structural.patch.paths,
        )
        # The added target depends on island 0's first target, which a0
        # taints: a0's analysis is gone, index entries included, until
        # the next sweep needs it.  b0, on the other island, keeps its
        # analysis and its entries.
        assert analyzer.cached_change_ids() == {b0.change_id}
        assert all(ids == {b0.change_id} for ids in analyzer._by_taint.values())
        assert set(analyzer._by_path) == set(b0.patch.paths)
        a1 = _clean(0, slot=1)
        assert analyzer.conflict_candidates(a1, [a0, b0]) == [a0.change_id]
        assert analyzer.stats.analyses_recomputed == 1
        assert analyzer.cached_change_ids() == {
            a0.change_id, b0.change_id, a1.change_id
        }
        fresh = ConflictAnalyzer(
            BuildContext.load(structural.patch.apply(dict(FILES)).to_dict())
        )
        for change in (a0, b0, a1):
            assert analyzer.affected_targets(change) == fresh.affected_targets(change)
            assert analyzer.analyze(change).taint == fresh.analyze(change).taint

    def test_checks_plus_skipped_is_the_full_sweep_on_8_islands(self):
        files, changes = mint_partitioned_cell(islands=8, count=64, seed=1911)
        full = ConflictAnalyzer(BuildContext.load(dict(files)))
        full_graph = ConflictGraph(full.conflict)
        for change in copy.deepcopy(changes):
            full_graph.add(change)
        analyzer = ConflictAnalyzer(BuildContext.load(dict(files)))
        graph = ConflictGraph(analyzer.conflict)
        pending = []
        for change in copy.deepcopy(changes):
            graph.add(change, analyzer.conflict_candidates(change, pending))
            pending.append(change)
        pairs = len(changes) * (len(changes) - 1) // 2
        assert full.stats.checks == pairs
        assert 0 < analyzer.stats.checks < pairs // 4
        assert analyzer.stats.checks + analyzer.stats.skipped == pairs
        assert {
            cid: graph.neighbors(cid) for cid in graph.in_order()
        } == {cid: full_graph.neighbors(cid) for cid in full_graph.in_order()}
        assert analyzer.stats.analyses == full.stats.analyses == len(changes)


# -- the service ---------------------------------------------------------------


class TestIndexedService:
    def test_fingerprint_matches_the_full_sweep(self):
        files, changes = mint_partitioned_cell(islands=3, count=12, seed=5)
        traces = []
        for build in (full_sweep_service, CoreService):
            service = build(
                Repository(dict(files)),
                _strategy(),
                config=CoreServiceConfig(workers=4),
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

    def test_index_narrows_the_sweep(self):
        full = _service(reference=True)
        indexed = _service()
        changes = [_clean(s % 2, slot=s, source_index=1) for s in range(8)]
        for service in (full, indexed):
            for change in copy.deepcopy(changes):
                service.submit(change)
        assert full.analyzer.stats.checks == 8 * 7 // 2
        assert full.analyzer.stats.skipped == 0
        assert indexed.analyzer.stats.checks < full.analyzer.stats.checks
        assert (
            indexed.analyzer.stats.checks + indexed.analyzer.stats.skipped
            == full.analyzer.stats.checks
        )
        assert [(d.change_id, d.committed) for d in full.pump()] == [
            (d.change_id, d.committed) for d in indexed.pump()
        ]

    def test_first_arrival_is_not_analysed(self):
        """Nothing pending, nothing to look up: the analysis waits for
        the first sweep that needs it, as in the full sweep."""
        service = _service()
        service.submit(_clean(0))
        assert service.analyzer.stats.analyses == 0
        service.submit(_clean(1))
        assert service.analyzer.stats.analyses == 2
        service.pump()

    @pytest.mark.parametrize("batching", [False, True])
    def test_cross_island_ancestors_in_both_islands(self, batching):
        last = len(_ISLANDS[0].target_names()) - 1
        verdicts = []
        for reference in (True, False):
            service = _service(reference=reference, batching=batching)
            a = _clean(0, slot=last)
            b = _clean(1, slot=last)
            cross = _cross_island(slot=last, source_index=1)
            for change in (a, b, cross):
                service.submit(change)
            assert service.planner.records[cross.change_id].ancestors == [
                a.change_id,
                b.change_id,
            ]
            decisions = service.pump()
            assert all(service.repo.mainline_green_flags())
            verdicts.append([d.committed for d in decisions])
            service.close()
        assert verdicts[0] == verdicts[1] == [True, True, True]


# -- a journal written while the queue spec existed -----------------------------


def test_legacy_queue_spec_in_init_record_recovers(tmp_path):
    journal_dir = str(tmp_path / "journal")
    writer = JournalWriter(journal_dir)
    service = _service(journal=writer)
    for change in (_clean(0), _clean(1), _clean(0, slot=1)):
        service.submit(change)
    service.pump()
    writer.close()
    live = fingerprint_digest(service)

    path = events_path(journal_dir)
    with open(path, "rb") as handle:
        head, rest = handle.read().split(b"\n", 1)
    init = json.loads(head[9:])
    assert init["t"] == "init" and "queue_backend" not in init["config"]
    init["config"]["queue_backend"] = "sharded:4"
    with open(path, "wb") as handle:
        handle.write(encode_record(init) + rest)

    report = recover(journal_dir, attach=False)
    assert fingerprint_digest(report.service) == live


# -- observability ---------------------------------------------------------------


def test_skipped_pairs_reach_metrics_and_the_report(tmp_path):
    recorder = Recorder()
    service = _service(recorder=recorder)
    for change in (_clean(0), _clean(1), _clean(0, slot=1)):
        service.submit(change)
    service.pump()
    skipped = recorder.registry.counter("conflict_pair_checks_skipped_total")
    assert skipped.value == service.analyzer.stats.skipped > 0
    assert "conflict_pair_checks_skipped_total" in recorder.prometheus_text()
    path = str(tmp_path / "run.jsonl")
    recorder.write_jsonl(path)
    assert "pair checks skipped (index)" in format_report(load_trace(path))
    assert not any(
        json.loads(line).get("name") == "shard" for line in open(path)
    )
