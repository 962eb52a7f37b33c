"""Dashboard and perf views over empty, partial, and stale stores.

Operators point ``dashboard`` / ``perf-report`` / ``perf-compare`` at
whatever cache dir they have — half-filled by an interrupted campaign,
written by an older schema, or never profiled at all.  Every renderer
must degrade to a visible notice, never a KeyError/TypeError: records
this version does not write are counted in one line and not read.
"""

import json
import re
from html import escape

import pytest

from repro.__main__ import main
from repro.analysis.dashboard import dashboard_from_store, render_dashboard
from repro.analysis.perf import (
    LEDGER_NAME,
    LedgerError,
    load_ledger,
    perf_compare,
    perf_report_from_store,
)
from repro.experiments.store import CellKey, DiskStore
from tests.payloads import cell_payload, observatory

#: A ledger as the current writer lays it out, with one profiled cell.
V3_LEDGER = {
    "kind": "campaign-perf-ledger",
    "ledger_version": 3,
    "jobs": 1,
    "wall_clock_s": 2.0,
    "cells": {"total": 1, "executed": 1, "cached": 0, "profiled": 1},
    "timing": {
        "cell_s": 1.5, "execute_s": 1.5, "restore_s": 0.0,
        "serialize_s": 0.0, "snapshot_s": 0.0, "speedup": 0.75,
        "parallelism": 0.75,
    },
    "warm_start": {},
    "replication": {
        "policy": "fixed", "reps_spent": 1, "reps_ceiling": 1,
        "saved_fraction": 0.0,
    },
    "profile": {
        "events": 10, "calls": 10, "self_s": 1.0, "window_s": 1.0,
        "layers": {"net": {"calls": 10, "self_s": 1.0}},
        "sites": [], "fabric": {"fast_frames": 5, "reference_frames": 1},
        "engine": {
            "events_processed": 10, "scheduled": 10, "timer_allocs": 1,
            "freelist_reuse": 9, "compactions": 0,
        },
    },
    "cell_rows": [
        {"cell": "V/f#r0", "execute_s": 1.5, "restore_s": 0.0,
         "serialize_s": 0.0, "snapshot_s": 0.0, "events": 10,
         "warm_status": "hit"},
    ],
}

#: Cell rows that are empty, stringly-typed or unreadable.
BAD_ROWS = [{}, {"cell": "V/f#r0", "execute_s": "0.5"}, None]

#: Ledgers this version does not write, each with what its one-line
#: reason names: a v1 (root-callback recorder) and a v2 ledger, which
#: kept ten ``top_cells`` and no ``cell_rows``, a v3 ledger whose
#: profile is not a section, and v3 ledgers with malformed nested keys.
FOREIGN_LEDGERS = {
    "v1": (
        {
            "kind": "campaign-perf-ledger",
            "ledger_version": 1,
            "profile": {
                "events": 10,
                "layers": {"net": {"events": 10, "self_s": 1.0}},
                "counters": {"fabric.fast_cached": 5, "fabric.slow": 1},
            },
            "top_cells": [{"cell": "V/f#r0", "execute_s": 1.5}],
        },
        "ledger_version 1,",
    ),
    "v2": (
        {**V3_LEDGER, "ledger_version": 2, "top_cells": [], "cell_rows": None},
        "ledger_version 2,",
    ),
    "bad-profile": (
        {**V3_LEDGER, "profile": "not-a-dict"},
        "'profile' is missing or not a dict",
    ),
    "bad-rows": (
        {**V3_LEDGER, "cell_rows": BAD_ROWS},
        "'cell_rows[0].cell' is missing or not a string",
    ),
    "empty-timing": (
        {**V3_LEDGER, "timing": {}},
        "'timing.execute_s' is missing or not a number",
    ),
    "bad-layer": (
        {
            **V3_LEDGER,
            "profile": {
                **V3_LEDGER["profile"],
                "layers": {"net": {"calls": "10", "self_s": 1.0}},
            },
        },
        "'profile.layers.net.calls' is missing or not a count",
    ),
    "negative-frames": (
        {
            **V3_LEDGER,
            "profile": {
                **V3_LEDGER["profile"],
                "fabric": {"fast_frames": -1, "reference_frames": 1},
            },
        },
        "'profile.fabric.fast_frames' is missing or not a count",
    ),
}

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


def test_render_dashboard_with_bare_minimum_payloads(tmp_path):
    """Current payloads with every optional value null or empty (no
    timeline series, an empty latency sketch, an uncalibrated watchdog,
    no attributed request) still render."""
    store = DiskStore(tmp_path)
    bare = {
        "observatory": observatory(),
        "timeline": {
            "series": [], "bucket_width": 5.0, "availability": 0.0, "tn": 0.0,
        },
    }
    for fault in (None, "link-down"):
        store.put(
            CellKey("TCP-PRESS", (), fault, 1, rep=0),
            cell_payload(fault, **bare),
        )
    html = render_dashboard(store.iter_cells())
    assert "TCP-PRESS" in html
    assert "link-down" in html
    for note in (
        "no timelines stored",
        "no served requests stored",
        "no attributed requests stored",
    ):
        assert note in html, note


def test_render_dashboard_flags_stale_schema_generations(tmp_path):
    store = DiskStore(tmp_path)
    store.put(CellKey("V", (), None, 1, rep=0), cell_payload())
    for schema, fault in ((1, "f"), (2, "g"), (2, "h")):
        store.put(
            CellKey("V", (), fault, 1, schema=schema, rep=0),
            cell_payload(fault, availability=0.5),
        )
    out, unread = dashboard_from_store(tmp_path)
    assert unread == (
        "1 cell(s) under schema v1, 2 cell(s) under schema v2: not read"
    )
    assert escape(unread) in out.read_text(encoding="utf-8")


def test_render_dashboard_with_malformed_perf_rows(tmp_path):
    """A ledger with malformed rows is rejected at load; the panel shows
    the one-line reason instead of the profile."""
    for rows, reason in (
        (BAD_ROWS, "'cell_rows[0].cell' is missing"),
        (BAD_ROWS[1:], "'cell_rows[0].execute_s' is missing"),
        (BAD_ROWS[2:], "'cell_rows[0]' is missing"),
        ("not-a-list", "'cell_rows' is missing"),
    ):
        ledger = {**V3_LEDGER, "cell_rows": rows}
        (tmp_path / LEDGER_NAME).write_text(json.dumps(ledger), "utf-8")
        with pytest.raises(LedgerError, match=re.escape(reason)) as exc:
            load_ledger(tmp_path)
        html = render_dashboard([], ledger_problem=str(exc.value))
        assert "<h2>performance (layer profiler)</h2>" in html
        assert escape(str(exc.value)) in html
        assert "V/f#r0" not in html

def test_render_dashboard_from_a_current_ledger(tmp_path):
    (tmp_path / LEDGER_NAME).write_text(json.dumps(V3_LEDGER), "utf-8")
    html = render_dashboard([], ledger=load_ledger(tmp_path))
    assert "net" in html
    assert "fastpath share 83.3%" in html
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
    # JSON nested past the parser's recursion limit is rejected as well.
    (tmp_path / LEDGER_NAME).write_text("[" * 100_000, "utf-8")
    assert "not JSON" in perf_report_from_store(tmp_path)


def test_perf_compare_of_two_empty_dirs_is_not_comparable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    text, comparable = perf_compare(a, b)
    assert not comparable
    assert "no profiler data" in text


def test_perf_compare_prints_counts_as_integers(tmp_path):
    """Count rows carry no decimals; a layer one side never ran is 0 s
    on that side."""
    profile_b = {
        **V3_LEDGER["profile"],
        "events": 1260204,
        "layers": {"osim": {"calls": 3, "self_s": 0.5}},
    }
    for name, ledger in (
        ("a", V3_LEDGER), ("b", {**V3_LEDGER, "profile": profile_b})
    ):
        (tmp_path / name).mkdir()
        (tmp_path / name / LEDGER_NAME).write_text(json.dumps(ledger), "utf-8")
    text, comparable = perf_compare(tmp_path / "a", tmp_path / "b")
    assert comparable
    rows = {line.split()[0]: line.split()[1:] for line in text.splitlines()}
    assert rows["events"] == ["10", "1260204", "+12601940.0%"]
    assert rows["calls"] == ["10", "10", "+0.0%"]
    assert rows["fast_frames"] == ["5", "5", "+0.0%"]
    assert rows["reference_frames"] == ["1", "1", "+0.0%"]
    assert rows["execute_s"] == ["1.5000s", "1.5000s", "+0.0%"]
    assert rows["layer.net"] == ["1.0000s", "0.0000s", "-100.0%"]
    assert rows["layer.osim"] == ["0.0000s", "0.5000s", "new"]


@pytest.mark.parametrize("view", ["perf-report", "dashboard", "perf-compare"])
@pytest.mark.parametrize("ledger", sorted(FOREIGN_LEDGERS))
def test_ledger_rejected_in_one_line(view, ledger, tmp_path, capsys):
    """A ledger this version does not write gets a one-line reason, not a
    traceback, in every view; perf-compare exits non-zero."""
    data, reason = FOREIGN_LEDGERS[ledger]
    (tmp_path / LEDGER_NAME).write_text(json.dumps(data), "utf-8")
    if view == "perf-report":
        main(["perf-report", str(tmp_path)])
        text = capsys.readouterr().out
    elif view == "dashboard":
        DiskStore(tmp_path).put(
            CellKey("TCP-PRESS", (), None, 1, rep=0), cell_payload()
        )
        main(["dashboard", str(tmp_path)])
        text = (tmp_path / "dashboard.html").read_text(encoding="utf-8")
        reason = escape(reason)
        assert text.count(reason) == 1
    else:
        with pytest.raises(SystemExit) as exc:
            main(["perf-compare", str(tmp_path), str(tmp_path)])
        assert exc.value.code != 0
        text = capsys.readouterr().out
        assert "self-time by layer" not in text
    if view != "dashboard":
        lines = [line for line in text.splitlines() if reason in line]
        assert len(lines) == (2 if view == "perf-compare" else 1), text
        assert str(tmp_path / LEDGER_NAME) in lines[0]
