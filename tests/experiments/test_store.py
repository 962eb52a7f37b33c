"""Tests for the persistent campaign result store."""

import dataclasses
import json

import pytest

from repro.experiments.settings import DEFAULT_SETTINGS
from repro.experiments.store import (
    SCHEMA_VERSION,
    SUMMARY_DIR,
    CellKey,
    DiskStore,
    MemoryStore,
    SummaryKey,
    open_store,
)
from tests.payloads import cell_payload

KEY = CellKey(
    version="TCP-PRESS",
    settings_key=DEFAULT_SETTINGS.sim_key(),
    fault="link-down",
    seed=12345,
)
PAYLOAD = cell_payload("link-down")


class TestCellKey:
    def test_digest_is_stable(self):
        assert KEY.digest() == KEY.digest()

    def test_digest_distinguishes_every_field(self):
        variants = [
            dataclasses.replace(KEY, version="VIA-PRESS-5"),
            dataclasses.replace(KEY, fault="node-crash"),
            dataclasses.replace(KEY, fault=None),
            dataclasses.replace(KEY, seed=54321),
            dataclasses.replace(KEY, schema=SCHEMA_VERSION + 1),
            dataclasses.replace(
                KEY,
                settings_key=dataclasses.replace(
                    DEFAULT_SETTINGS, utilization=0.5
                ).sim_key(),
            ),
        ]
        digests = {KEY.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1


class TestMemoryStore:
    def test_miss_then_hit(self):
        store = MemoryStore()
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD

    def test_clear(self):
        store = MemoryStore()
        store.put(KEY, PAYLOAD)
        store.clear()
        assert store.get(KEY) is None
        assert len(store) == 0


class TestDiskStore:
    def test_miss_then_hit(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        DiskStore(tmp_path).put(KEY, PAYLOAD)
        assert DiskStore(tmp_path).get(KEY) == PAYLOAD

    def test_settings_change_invalidates(self, tmp_path):
        """A different settings.sim_key() is a different universe."""
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        other = dataclasses.replace(
            KEY,
            settings_key=dataclasses.replace(
                DEFAULT_SETTINGS, fault_at=61.0
            ).sim_key(),
        )
        assert store.get(other) is None

    def test_schema_bump_invalidates(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        assert store.get(dataclasses.replace(KEY, schema=SCHEMA_VERSION + 1)) is None

    def test_corrupted_file_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        path = store._path(KEY)
        path.write_text("{ this is not json")
        assert store.get(KEY) is None

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        path = store._path(KEY)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert store.get(KEY) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        store._path(KEY).write_text(json.dumps([1, 2, 3]))
        assert store.get(KEY) is None

    def test_binary_garbage_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        store._path(KEY).write_bytes(b"\x00\xff\xfe garbage \x80")
        assert store.get(KEY) is None

    def test_clear_removes_cells_keeps_dir(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        store.put(dataclasses.replace(KEY, seed=99), PAYLOAD)
        store.clear()
        assert len(store) == 0
        assert tmp_path.exists()
        assert store.get(KEY) is None

    def test_no_tmp_droppings_after_put(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, PAYLOAD)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_cache_dir_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(NotADirectoryError, match="not a directory"):
            DiskStore(target)

    def test_creates_cache_dir(self, tmp_path):
        nested = tmp_path / "a" / "b"
        DiskStore(nested).put(KEY, PAYLOAD)
        assert DiskStore(nested).get(KEY) == PAYLOAD


class TestOpenStore:
    def test_none_gives_memory(self):
        assert isinstance(open_store(None), MemoryStore)

    def test_path_gives_disk(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, DiskStore)


class TestSchemaV5Golden:
    """Golden fixtures for the schema-v5 on-disk layout.

    Pins the record shape and key digests so that any accidental change
    to the cache identity or file format fails loudly here — the correct
    response to an intentional change is a SCHEMA_VERSION bump, which
    invalidates old stores instead of mis-reading them.
    """

    #: Fixed keys with a synthetic settings tuple: the digest depends
    #: only on the key fields, never on the live DEFAULT_SETTINGS.
    GOLDEN_CELL = CellKey(
        version="TCP-PRESS",
        settings_key=("golden", 1),
        fault="node-crash",
        seed=42,
        schema=5,
        rep=1,
    )
    GOLDEN_SUMMARY = SummaryKey(
        version="TCP-PRESS",
        settings_key=("golden", 1),
        fault="node-crash",
        policy_key=("ci", 3, 10, 0.05, 0.95, None),
        schema=5,
    )

    def test_cell_digest_is_pinned(self):
        assert self.GOLDEN_CELL.digest() == (
            "a997618af9b6d038ea7bf2454f2a3927"
            "da52a1ee9a332a4e89e6d0bceb0c2b18"
        )

    def test_summary_digest_is_pinned(self):
        assert self.GOLDEN_SUMMARY.digest() == (
            "06f39c856d876ba3cda16343d73f6661"
            "0b9c71a68b9c03e92fd1ef575760fe33"
        )

    def test_rep_is_provenance_not_identity(self, tmp_path):
        """Two keys differing only in ``rep`` address the same cell."""
        other = dataclasses.replace(self.GOLDEN_CELL, rep=7)
        assert other == self.GOLDEN_CELL
        assert other.digest() == self.GOLDEN_CELL.digest()
        store = DiskStore(tmp_path)
        assert store._path(other) == store._path(self.GOLDEN_CELL)

    def test_cell_record_layout_round_trips(self, tmp_path):
        store = DiskStore(tmp_path)
        payload = cell_payload("node-crash", tn=2.0)
        store.put(self.GOLDEN_CELL, payload)
        raw = json.loads(store._path(self.GOLDEN_CELL).read_text())
        assert raw == {
            "key": {
                "version": "TCP-PRESS",
                "fault": "node-crash",
                "seed": 42,
                "schema": 5,
                "rep": 1,
            },
            "payload": payload,
        }
        # A fresh handle reads it back.  The reporting walk reads only
        # the current schema: it counts this record and surfaces the
        # replication index of a current one.
        reopened = DiskStore(tmp_path)
        assert reopened.get(self.GOLDEN_CELL) == payload
        assert list(reopened.iter_cells()) == []
        assert reopened.unread_line() == "1 cell(s) under schema v5: not read"
        reopened.put(
            dataclasses.replace(self.GOLDEN_CELL, schema=SCHEMA_VERSION),
            payload,
        )
        ((key_info, got),) = list(reopened.iter_cells())
        assert (key_info["rep"], got) == (1, payload)

    def test_summary_record_layout_round_trips(self, tmp_path):
        store = DiskStore(tmp_path)
        payload = {
            "reps": 4, "reason": "converged", "mean": 0.9,
            "ci_half_width": 0.01,
        }
        store.put_summary(self.GOLDEN_SUMMARY, payload)
        path = store._summary_path(self.GOLDEN_SUMMARY)
        assert path.parent.name == SUMMARY_DIR
        raw = json.loads(path.read_text())
        assert raw == {
            "summary_key": {
                "version": "TCP-PRESS",
                "fault": "node-crash",
                "policy": ["ci", 3, 10, 0.05, 0.95, None],
                "schema": 5,
            },
            "payload": payload,
        }
        reopened = DiskStore(tmp_path)
        # The reporting walk reads only the current schema and policy
        # layout (rule, min reps, max reps, target).
        assert list(reopened.iter_summaries()) == []
        current = SummaryKey(
            version="TCP-PRESS",
            settings_key=("golden", 1),
            fault="node-crash",
            policy_key=("ci", 3, 10, 0.05),
        )
        reopened.put_summary(current, payload)
        ((summary_key, got),) = list(reopened.iter_summaries())
        assert summary_key["policy"] == ["ci", 3, 10, 0.05]
        assert got == payload
        assert reopened.unread_line() == (
            "1 summary(ies) under schema v5: not read"
        )

    def test_hand_written_record_is_readable(self, tmp_path):
        """The documented layout, written by hand, is a valid record —
        the reader is pinned to the format, not to the writer."""
        store = DiskStore(tmp_path)
        path = store._path(self.GOLDEN_CELL)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "key": {
                        "version": "TCP-PRESS",
                        "fault": "node-crash",
                        "seed": 42,
                        "schema": 5,
                        "rep": 1,
                    },
                    "payload": cell_payload("node-crash", tn=3.5),
                }
            )
        )
        assert store.get(self.GOLDEN_CELL) == cell_payload(
            "node-crash", tn=3.5
        )

    def test_summaries_are_policy_dependent(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put_summary(self.GOLDEN_SUMMARY, {"reps": 4})
        other_policy = dataclasses.replace(
            self.GOLDEN_SUMMARY, policy_key=("fixed", 3, 3)
        )
        assert store._summary_path(other_policy) != store._summary_path(
            self.GOLDEN_SUMMARY
        )
        assert not store._summary_path(other_policy).exists()

    def test_corrupt_summary_is_a_miss_and_skipped(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put_summary(self.GOLDEN_SUMMARY, {"reps": 4})
        store._summary_path(self.GOLDEN_SUMMARY).write_text("{ nope")
        assert list(store.iter_summaries()) == []
        assert store.unread_line() == ""

    def test_clear_removes_summaries_too(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(self.GOLDEN_CELL, {"kind": "baseline", "tn": 1.0})
        store.put_summary(self.GOLDEN_SUMMARY, {"reps": 4})
        store.clear()
        assert store.get(self.GOLDEN_CELL) is None
        assert not store._summary_path(self.GOLDEN_SUMMARY).exists()

    def test_v4_store_is_invalidated_not_reread(self, tmp_path):
        """A store written under schema v4 misses at v5 and reports the
        invalidation — its payloads are never re-read as current."""
        store = DiskStore(tmp_path)
        v4 = dataclasses.replace(self.GOLDEN_CELL, schema=4)
        store.put(v4, {"kind": "baseline", "tn": 9.9})
        assert store.get(self.GOLDEN_CELL) is None
        assert store.drain_notices() == [
            f"cache invalidated (schema v4→v{SCHEMA_VERSION}): "
            "1 cell(s) re-run"
        ]


class TestSchemaNotices:
    """A schema bump re-runs cells; drain_notices makes that visible."""

    def test_miss_over_stale_schema_is_reported(self, tmp_path):
        store = DiskStore(tmp_path)
        old_key = dataclasses.replace(KEY, schema=1)
        store.put(old_key, PAYLOAD)
        assert store.get(KEY) is None  # current schema misses...
        notices = store.drain_notices()
        assert notices == [
            f"cache invalidated (schema v1→v{SCHEMA_VERSION}): "
            "1 cell(s) re-run"
        ]

    def test_drain_resets(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(dataclasses.replace(KEY, schema=1), PAYLOAD)
        store.get(KEY)
        assert store.drain_notices()
        assert store.drain_notices() == []

    def test_cold_miss_is_not_a_schema_notice(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get(KEY) is None
        assert store.drain_notices() == []

    def test_multiple_stale_cells_are_counted(self, tmp_path):
        store = DiskStore(tmp_path)
        for seed in (1, 2, 3):
            store.put(
                dataclasses.replace(KEY, schema=1, seed=seed), PAYLOAD
            )
        for seed in (1, 2, 3):
            store.get(dataclasses.replace(KEY, seed=seed))
        (notice,) = store.drain_notices()
        assert "3 cell(s) re-run" in notice

    def test_memory_store_has_no_notices(self):
        assert MemoryStore().drain_notices() == []


class TestReadBoundary:
    """A record leaves a DiskStore only if it has the current shape."""

    def test_malformed_payload_is_a_miss_and_noticed(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, {k: v for k, v in PAYLOAD.items() if k != "profile"})
        assert store.get(KEY) is None
        store._path(KEY).write_text("{ truncated")
        assert store.get(KEY) is None
        assert store.drain_notices() == [
            "2 unreadable or malformed cached cell(s) re-run"
        ]
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD
        assert store.drain_notices() == []

    def test_a_baseline_payload_under_a_fault_key_is_malformed(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(KEY, cell_payload())
        assert store.get(KEY) is None

    def test_walks_read_current_records_and_count_the_rest(self, tmp_path):
        store = DiskStore(tmp_path)
        current = dataclasses.replace(KEY, rep=0)
        store.put(current, PAYLOAD)
        store.put(dataclasses.replace(current, seed=1, schema=3), PAYLOAD)
        store.put(
            dataclasses.replace(current, seed=2),
            cell_payload("link-down", observatory="x"),
        )
        store.put(dataclasses.replace(current, seed=3, rep=None), PAYLOAD)
        summary = SummaryKey(
            version="TCP-PRESS",
            settings_key=("s",),
            fault=None,
            policy_key=("fixed", 1, 1, 0.02),
        )
        store.put_summary(summary, {"reps": 1})
        store.put_summary(dataclasses.replace(summary, schema=8), {"reps": 1})
        assert [p for _k, p in store.iter_cells()] == [PAYLOAD]
        assert list(store.iter_summaries()) == []
        assert store.unread_line() == (
            "1 cell(s) under schema v3, 2 cell(s) malformed, "
            "1 summary(ies) under schema v8, 1 summary(ies) malformed: "
            "not read"
        )

    def test_optional_numbers_may_be_null_and_counts_not_negative(
        self, tmp_path
    ):
        from repro.experiments.store import payload_problem

        assert payload_problem("link-down", PAYLOAD) is None
        negative = cell_payload("link-down", subscriber_errors=-1)
        assert payload_problem("link-down", negative) == (
            "'telemetry.subscriber_errors' is missing or not a count"
        )
        short_row = cell_payload(
            "link-down",
            timeline={**PAYLOAD["timeline"], "series": [[0.0]]},
        )
        assert payload_problem("link-down", short_row) == (
            "'timeline.series[0]' is missing or not a list of 2"
        )
