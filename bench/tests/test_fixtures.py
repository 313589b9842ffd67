"""Fixture determinism, ground truth, and the CSV round trip."""

import copy
import hashlib
import os
import subprocess
import sys

import pytest

from bench import fixtures
from bench.tests.conftest import ROOT
from bench.worker import Session

DIGEST_SCRIPT = """
import hashlib, sys
from bench import fixtures
fixture = fixtures.mint(sys.argv[1], int(sys.argv[2]))
fixtures.dump_csv(fixture, sys.argv[3])
print(hashlib.sha256(open(sys.argv[3], 'rb').read()).hexdigest())
"""


def csv_digest(workload, seed, hashseed, path):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    done = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, workload, str(seed), str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("workload", sorted(fixtures.WORKLOADS))
def test_minting_is_independent_of_the_hash_seed(workload, tmp_path):
    path = tmp_path / "stream.csv"
    assert csv_digest(workload, 23, 0, path) == csv_digest(workload, 23, 1, path)


def test_seed_redraws_content_but_not_the_skeleton(tmp_path):
    first = fixtures.mint("conflict_storm", 23)
    second = fixtures.mint("conflict_storm", 101)
    assert [i.kind for i in first.items] == [i.kind for i in second.items]
    assert [i.arrival for i in first.items] == [i.arrival for i in second.items]
    texts = lambda fx: [sorted(i.change.patch.delta().items()) for i in fx.items]
    assert texts(first) != texts(second)


@pytest.mark.parametrize("workload", sorted(fixtures.WORKLOADS))
def test_every_change_edits_a_file_of_its_own(workload):
    spec = fixtures.WORKLOADS[workload]
    fixture = fixtures.mint(workload, 7)
    assert len(fixture.items) == spec.count
    paths = [p for item in fixture.items for p in item.change.patch.paths]
    assert len(paths) == len(set(paths))
    kinds = [item.kind for item in fixture.items]
    assert kinds.count(fixtures.PAIR_A) == kinds.count(fixtures.PAIR_B)
    # The second half of a pair is the one that arrives later.
    seen = set()
    for item in fixture.items:
        target = item.change.description.rsplit(" ", 1)[-1]
        if item.kind == fixtures.PAIR_A:
            seen.add(target)
        elif item.kind == fixtures.PAIR_B:
            assert target in seen


def drive(items, fixture, tmp_path):
    spec = fixtures.WORKLOADS[fixture.workload]
    replica = fixtures.Fixture(fixture.workload, fixture.seed, fixture.files, items)
    session = Session(spec, replica, str(tmp_path), gap=None)
    session.drive_in_process()
    decisions = [
        (d.change_id, d.committed, d.at, d.reason)
        for d in session.service.planner.decisions()
    ]
    from repro.journal.fingerprint import fingerprint_digest

    digest = fingerprint_digest(session.service)
    session.close()
    return decisions, digest


def test_csv_round_trip_yields_identical_decisions(tmp_path):
    fixture = fixtures.mint("conflict_storm", 23, count=48)
    path = tmp_path / "storm.csv"
    fixtures.dump_csv(fixture, str(path))
    loaded = fixtures.load_csv(str(path))
    assert [i.kind for i in loaded] == [i.kind for i in fixture.items]
    assert [i.arrival for i in loaded] == [i.arrival for i in fixture.items]
    header = path.read_text().splitlines()[0]
    assert header == "request_id,arrival_offset,mode,priority,body_json"
    original = drive(copy.deepcopy(fixture.items), fixture, tmp_path)
    replayed = drive(loaded, fixture, tmp_path)
    assert original == replayed
    assert len(original[0]) == 48
    # and the decisions are the fixture's ground truth
    verdicts = {change_id: committed for change_id, committed, _, _ in replayed[0]}
    assert all(verdicts[i.change.change_id] == i.expect_committed for i in loaded)
