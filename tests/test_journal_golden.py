"""Golden-journal tests: a committed fixture with pinned inspect/verify/
recover output, plus the replay-determinism regression pins.

The fixture under ``tests/data/golden_journal`` is regenerated with
``PYTHONPATH=src python tests/make_golden_journal.py``; these tests pin
its exact ``inspect`` text and recovered-state fingerprint, so *any*
behavioural drift in the service — planning order, durations, decision
reasons, record encodings — shows up as a golden diff instead of a
silent replay divergence in production journals.
"""

import os
import subprocess
import sys

from repro.journal import (
    fingerprint_digest,
    format_summary,
    recover,
    summarize,
    verify_journal,
)

from .journal_harness import mint_changes, reference_run
from .make_golden_journal import GOLDEN_DIR, GOLDEN_OPS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pinned(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


class TestGoldenFixture:
    def test_inspect_output_is_pinned(self):
        summary = summarize(GOLDEN_DIR)
        summary.path = "tests/data/golden_journal/events.jsonl"
        assert format_summary(summary) + "\n" == _pinned("inspect.txt")

    def test_verify_with_replay_passes(self):
        result = verify_journal(GOLDEN_DIR, replay=True)
        assert result.ok, result.error
        assert result.torn_tail_bytes == 0
        assert result.records == summarize(GOLDEN_DIR).records

    def test_recover_fingerprint_is_pinned(self):
        report = recover(GOLDEN_DIR, attach=False)
        assert (
            fingerprint_digest(report.service) + "\n"
            == _pinned("fingerprint.txt")
        )

    def test_prefix_replays_past_its_snapshot(self, tmp_path):
        """The whole fixture ends in a snapshot, so ``verify --replay``
        re-drives nothing after it.  Its first 40 lines end at a
        ``pump_end`` whose newest snapshot is line 19: replaying them
        checks real inputs, and recovering them lands where replaying
        the same prefix from ``init`` — its snapshot line dropped — does.
        """
        lines = _pinned("events.jsonl").splitlines(keepends=True)[:40]
        assert '"t":"snapshot"' in lines[18]
        prefix = tmp_path / "prefix"
        genesis = tmp_path / "genesis"
        for directory, kept in (
            (prefix, lines),
            (genesis, [line for line in lines if '"t":"snapshot"' not in line]),
        ):
            directory.mkdir()
            (directory / "events.jsonl").write_text("".join(kept), encoding="utf-8")
        result = verify_journal(str(prefix), replay=True)
        assert result.ok, result.error
        assert result.replayed > 0 and result.verified > 0
        from_snapshot = recover(str(prefix), attach=False)
        from_init = recover(str(genesis), attach=False)
        assert from_snapshot.snapshot_restored
        assert not from_init.snapshot_restored
        assert fingerprint_digest(from_snapshot.service) == fingerprint_digest(
            from_init.service
        )

    def test_generator_reproduces_fixture_bytes(self, tmp_path):
        """The live service still regenerates the fixture byte-for-byte.

        Runs the generator in a fresh interpreter (change ids come from a
        process-global counter, so the test process itself cannot mint
        the fixture's ids) and diffs every output file.
        """
        out_dir = str(tmp_path / "regen")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join("tests", "make_golden_journal.py"),
                out_dir,
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("events.jsonl", "inspect.txt", "fingerprint.txt"):
            with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
                pinned = handle.read()
            with open(os.path.join(out_dir, name), "rb") as handle:
                regenerated = handle.read()
            assert regenerated == pinned, f"{name} drifted"


class TestReplayDeterminismPins:
    """Regression pins for nondeterminism the replay oracle surfaced.

    Raw commit ids come from a process-global counter and differ between
    any two runs in one process; the journal, snapshots, and fingerprints
    must therefore stay commit-id-free, and record encodings must not
    depend on hash-iteration order.
    """

    def test_journal_bytes_reproducible_within_one_process(self, tmp_path):
        """Two same-script runs in one process journal identical bytes —
        even though the second run's repo mints different commit ids."""
        changes = mint_changes()
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        reference_run(first, changes, GOLDEN_OPS)
        reference_run(second, changes, GOLDEN_OPS)
        with open(os.path.join(first, "events.jsonl"), "rb") as handle:
            data_a = handle.read()
        with open(os.path.join(second, "events.jsonl"), "rb") as handle:
            data_b = handle.read()
        assert data_a == data_b

    def test_journal_contains_no_raw_commit_ids(self):
        """Service-minted commit ids (``c000001``-style) never appear.

        The one sanctioned exception is a change's ``"base"`` field: that
        id arrives *inside* the submitted change and round-trips through
        the codec verbatim, so it is input data, not minted state.
        """
        import re

        with open(
            os.path.join(GOLDEN_DIR, "events.jsonl"), "r", encoding="utf-8"
        ) as handle:
            data = handle.read()
        data = re.sub(r'"base":"c\d{6}"', '"base":"<id>"', data)
        assert not re.search(r'"c\d{6}"', data)

    def test_replay_is_hash_seed_independent(self):
        """The golden journal replays cleanly under different hash seeds.

        Run in subprocesses because ``PYTHONHASHSEED`` only takes effect
        at interpreter startup; a divergence would mean some record or
        decision depends on set/dict iteration order.
        """
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "journal",
                    "verify",
                    os.path.join("tests", "data", "golden_journal"),
                    "--replay",
                ],
                cwd=REPO_ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert "ok" in proc.stdout
