"""Record-layer tests: codecs round-trip, payloads stay JSON-native, and
semantic validation rejects malformed streams."""

import json

import pytest

from repro.errors import JournalCorruptError
from repro.journal import records as rec
from repro.types import BuildKey

from .journal_harness import mint_changes


def _json_native(payload):
    """Encoded payloads must survive a JSON round trip unchanged."""
    return json.loads(json.dumps(payload)) == payload


class TestChangeCodec:
    def test_round_trip_all_change_shapes(self):
        for change in mint_changes():
            payload = rec.encode_change(change)
            assert _json_native(payload)
            twin = rec.decode_change(payload)
            assert rec.encode_change(twin) == payload
            assert twin.change_id == change.change_id
            assert twin.patch is not None and list(twin.patch) == list(change.patch)
            assert twin.developer == change.developer
            assert twin.ground_truth == change.ground_truth
            assert twin.features == change.features

    def test_clone_is_independent(self):
        change = mint_changes()[0]
        twin = rec.decode_change(rec.encode_change(change))
        assert twin is not change and twin.patch is not change.patch


class TestKeyCodec:
    def test_round_trip_and_sorted_assumed(self):
        key = BuildKey("c9", frozenset({"b", "a", "c"}))
        payload = rec.encode_key(key)
        assert payload["a"] == ["a", "b", "c"]
        assert rec.decode_key(payload) == key


class TestRecordBuilders:
    def test_all_builders_emit_json_native_payloads(self):
        change = mint_changes()[0]
        key = BuildKey(change.change_id, frozenset({"x"}))
        samples = [
            rec.init_record(0.0, {"workers": 3}, {"name": "S"}, {"files": {}}),
            rec.submit_record(1.0, change),
            rec.stall_record(2.0),
            rec.build_finish_record(3.0, key, True),
            rec.epoch_record(4.0, [key], [], 2),
            rec.build_start_record(4.0, key, 12.5),
            rec.decision_record(5.0, change.change_id, True, "clean", 4.0),
            rec.commit_record(5.0, change.change_id, 1, {"a.py": "x", "b.py": None}),
            rec.worker_record(5.0, 1, 3),
            rec.pump_end_record(6.0, 2),
            rec.batch_record(6.0, "landed", ["c1", "c2"], 0),
            rec.snapshot_record(6.0, {"at": 6.0}),
        ]
        kinds = {record["t"] for record in samples}
        assert kinds == rec.ALL_TYPES
        for record in samples:
            assert _json_native(record)

    def test_commit_record_is_commit_id_free(self):
        payload = rec.commit_record(1.0, "ch1", 2, {"b.py": None, "a.py": "x"})
        assert payload["paths"] == ["a.py", "b.py"]
        assert "commit_id" not in json.dumps(payload)
        assert payload["digest"] == rec.delta_digest({"a.py": "x", "b.py": None})


class TestCheckRecords:
    def test_accepts_well_formed_stream(self):
        rec.check_records(
            [rec.init_record(0.0, {}, {}, {}), rec.stall_record(1.0)]
        )

    def test_empty_stream_rejected(self):
        with pytest.raises(JournalCorruptError):
            rec.check_records([])

    def test_missing_init_rejected(self):
        with pytest.raises(JournalCorruptError, match="must open"):
            rec.check_records([rec.stall_record(0.0)])

    def test_unknown_schema_version_rejected(self):
        head = rec.init_record(0.0, {}, {}, {})
        head["v"] = rec.SCHEMA_VERSION + 1
        with pytest.raises(JournalCorruptError, match="schema version"):
            rec.check_records([head])

    def test_unknown_record_type_rejected(self):
        with pytest.raises(JournalCorruptError, match="unknown record type"):
            rec.check_records(
                [rec.init_record(0.0, {}, {}, {}), {"t": "mystery", "at": 1.0}]
            )

    def test_mid_log_init_rejected(self):
        head = rec.init_record(0.0, {}, {}, {})
        with pytest.raises(JournalCorruptError, match="mid-log init"):
            rec.check_records([head, dict(head)])

    def test_type_roles_partition(self):
        assert rec.DRIVER_TYPES | rec.ASSERTION_TYPES | rec.INFO_TYPES == rec.ALL_TYPES
        assert not rec.DRIVER_TYPES & rec.ASSERTION_TYPES
        assert not rec.DRIVER_TYPES & rec.INFO_TYPES
        assert not rec.ASSERTION_TYPES & rec.INFO_TYPES
