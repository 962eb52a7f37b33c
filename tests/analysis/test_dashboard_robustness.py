"""Dashboard and perf views over empty, partial, and stale stores.

Operators point ``dashboard`` / ``perf-report`` / ``perf-compare`` at
whatever cache dir they have — half-filled by an interrupted campaign,
written by an older schema, or never profiled at all.  Every renderer
must degrade to a visible notice, never a KeyError/TypeError.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.dashboard import dashboard_from_store, render_dashboard
from repro.analysis.perf import perf_compare, perf_report_from_store

#: A schema-v8 store written by a profiled ``shards=2`` campaign before
#: LP sharding was removed: one baseline cell, its perf/ record (which
#: the readers now ignore), and the v1 ledger, each still carrying the
#: retired ``"lp"`` section.
LEGACY_LP_STORE = Path(__file__).parent / "legacy_lp_store"


def test_dashboard_from_store_rejects_non_directories(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        dashboard_from_store(tmp_path / "nope")


def test_dashboard_from_store_rejects_empty_stores(tmp_path):
    with pytest.raises(ValueError, match="no campaign cells"):
        dashboard_from_store(tmp_path)


def test_render_dashboard_with_no_cells_shows_notices():
    html = render_dashboard([])
    for note in (
        "no complete version in the store",
        "no fault cells in the store",
        "no divergence reports stored",
        "no health telemetry stored",
        "no profiler data stored",
    ):
        assert note in html, note


def test_render_dashboard_with_bare_minimum_payloads():
    """Keys and payloads missing every optional field still render."""
    rows = [
        ({"version": "TCP-PRESS", "fault": None, "seed": 1}, {}),
        ({"version": "TCP-PRESS", "fault": "link-down", "seed": 1}, {}),
        ({}, {}),  # a row with no identity at all
    ]
    html = render_dashboard(rows)
    assert "TCP-PRESS" in html
    assert "link-down" in html


def test_render_dashboard_flags_stale_schema_generations():
    rows = [
        (
            {"version": "V", "fault": "f", "seed": 1, "schema": 1},
            {"timeline": {"availability": 0.5}},
        ),
        (
            {"version": "V", "fault": "g", "seed": 1, "schema": 2},
            {"timeline": {"availability": 0.9}},
        ),
    ]
    html = render_dashboard(rows)
    assert "older store schema" in html


def test_render_dashboard_with_malformed_perf_rows():
    """Ledger rows that are stale, empty, or garbage degrade gracefully."""
    ledger = {
        "cell_rows": [
            {},
            {"cell": "V/f#r0", "execute_s": "0.5"},  # stringly-typed
            None,  # unreadable row
        ],
        "profile": "not-a-dict",
    }
    html = render_dashboard([], ledger=ledger)
    assert "<h2>performance (layer profiler)</h2>" in html
    assert "V/f#r0" in html


def test_render_dashboard_from_ledger_only():
    """A v1/v2 ledger (ten ``top_cells``, no ``cell_rows``) still
    fills the panel."""
    ledger = {
        "wall_clock_s": 2.0,
        "jobs": 2,
        "timing": {
            "execute_s": 1.5,
            "restore_s": 0.25,
            "speedup": 0.9,
            "parallelism": 0.8,
        },
        "profile": {
            "events": 10,
            "self_s": 1.0,
            "layers": {"net": {"events": 10, "self_s": 1.0}},
            "counters": {"fabric.fast_cached": 5, "fabric.slow": 1},
            "engine": {"events_processed": 10},
        },
        "top_cells": [{"cell": "V/f#r0", "execute_s": 1.5, "events": 10}],
    }
    html = render_dashboard([], ledger=ledger)
    assert "net" in html
    assert "fastpath" in html
    assert "V/f#r0" in html


def test_perf_report_on_unprofiled_store_prints_a_notice(tmp_path):
    text = perf_report_from_store(tmp_path)
    assert "no profiler data found" in text
    assert "--profile" in text


def test_perf_report_rejects_non_directories(tmp_path):
    with pytest.raises(ValueError, match="not a directory"):
        perf_report_from_store(tmp_path / "nope")


def test_perf_report_survives_a_corrupt_ledger_and_records(tmp_path):
    (tmp_path / "BENCH_campaign.json").write_text("{not json", "utf-8")
    perf_dir = tmp_path / "perf"
    perf_dir.mkdir()
    (perf_dir / "deadbeef.json").write_text("also not json", "utf-8")
    (perf_dir / "cafe.json").write_text(
        json.dumps({"key": {"version": "V"}, "perf": {"execute_s": 0.5}}),
        "utf-8",
    )
    text = perf_report_from_store(tmp_path)
    # The ledger is the only record: perf/ left by older versions is
    # ignored, so a corrupt ledger means no profiler data.
    assert "no profiler data found" in text


def test_perf_compare_of_two_empty_dirs_is_not_comparable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    text, comparable = perf_compare(a, b)
    assert not comparable
    assert "no profiler data" in text


def test_perf_report_renders_a_legacy_lp_store_without_an_lp_line():
    text = perf_report_from_store(LEGACY_LP_STORE)
    assert "self-time by layer" in text
    assert "TCP-PRESS/baseline" in text
    assert "lp shards" not in text
    assert "lp workers" not in text


def test_dashboard_renders_a_legacy_lp_store_without_an_lp_panel(tmp_path):
    store = tmp_path / "legacy"
    shutil.copytree(LEGACY_LP_STORE, store)
    html = dashboard_from_store(store).read_text(encoding="utf-8")
    assert "<h2>performance (layer profiler)</h2>" in html
    assert "TCP-PRESS/baseline" in html
    assert "LP shards" not in html
    assert "LP workers" not in html
