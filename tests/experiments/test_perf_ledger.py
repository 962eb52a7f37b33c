"""The campaign perf ledger and the perf-report / perf-compare views.

One small profiled campaign per module; assertions cover the per-cell
perf records (wall-clock breakdown + profiler digest), the
``BENCH_campaign.json`` ledger that is their only persisted record, the
report's execute/warm-restore split (``speedup`` vs ``parallelism``),
and both CLI views.
"""

import json
import shutil

import pytest

from repro.__main__ import main
from repro.analysis.perf import (
    LEDGER_NAME,
    LEDGER_VERSION,
    TOP_SITES,
    _layer_lines,
    aggregate_perf,
    campaign_ledger,
    load_ledger,
    perf_compare,
    perf_report_from_store,
)
from repro.experiments.runner import run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import DiskStore, MemoryStore
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE

FAST = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=1234,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=1,
)

VERSIONS = ["TCP-PRESS"]
FAULTS = [FaultKind.LINK_DOWN, FaultKind.NODE_CRASH]


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf-store")
    sets, report = run_campaign(
        FAST,
        versions=VERSIONS,
        faults=FAULTS,
        store=DiskStore(path),
        profile=True,
    )
    return path, report


def test_every_executed_cell_gets_a_perf_record(profiled):
    path, report = profiled
    assert len(report.perf) == report.executed == len(report.cells)
    for row in report.perf:
        for key in (
            "version",
            "restore_s",
            "execute_s",
            "serialize_s",
            "snapshot_s",
            "warm_status",
            "profile",
        ):
            assert key in row, key
        digest = row["profile"]
        assert digest["events"] > 0
        assert digest["self_s"] > 0.0
        assert digest["layers"]
        assert digest["engine"]["events_processed"] > 0
        assert "lp" not in digest


def test_report_splits_execute_from_warm_restore(profiled):
    _path, report = profiled
    assert report.restore_seconds >= 0.0
    assert report.execute_seconds > 0.0
    assert report.cell_seconds == pytest.approx(
        report.execute_seconds + report.restore_seconds
    )
    # Restore time is part of speedup's numerator but not parallelism's.
    assert report.parallelism <= report.speedup


def test_ledger_written_beside_the_store(profiled):
    path, report = profiled
    ledger = load_ledger(path)
    assert ledger is not None, f"{LEDGER_NAME} missing or unreadable"
    assert ledger["ledger_version"] == LEDGER_VERSION == 3
    assert ledger["cells"]["profiled"] == len(report.perf)
    assert ledger["timing"]["execute_s"] == pytest.approx(
        report.execute_seconds
    )
    assert ledger["profile"]["layers"]
    assert "lp" not in ledger["profile"]
    assert "shards" not in ledger["settings"]
    assert ledger["settings"]["n_nodes"] == 4
    assert any(n.startswith("profiler:") for n in report.notices)
    # JSON round-trips exactly (no non-serializable leftovers).
    json.loads((path / LEDGER_NAME).read_text())


def test_perf_records_round_trip_through_the_store(profiled):
    """Every executed cell's breakdown is in the ledger; nothing else
    is written."""
    path, report = profiled
    assert not (path / "perf").exists()
    rows = load_ledger(path)["cell_rows"]
    assert rows == aggregate_perf(report.perf)["cells"]
    assert len(rows) == report.executed
    assert all(row["cell"].split("/")[0] in VERSIONS for row in rows)


def test_perf_report_totals_and_layers_equal_the_runs_aggregate(profiled):
    path, report = profiled
    agg = aggregate_perf(report.perf)
    ledger = load_ledger(path)
    profile = ledger["profile"]
    assert ledger["cells"]["profiled"] == agg["totals"]["cells"]
    for key in ("events", "calls", "self_s", "window_s"):
        assert profile[key] == agg["totals"][key], key
    for key in ("execute_s", "restore_s", "serialize_s", "snapshot_s"):
        rows = ledger["cell_rows"]
        assert sum(row[key] for row in rows) == agg["totals"][key], key
    assert profile["layers"] == agg["layers"]
    text = perf_report_from_store(path)
    assert f"profiled: {agg['totals']['cells']} cell record(s)" in text
    for line in _layer_lines(agg["layers"], agg["totals"]["self_s"]):
        assert line in text


def test_perf_report_prints_the_acceptance_surface(profiled):
    path, _report = profiled
    text = perf_report_from_store(path)
    assert "self-time by layer" in text
    assert "per-cell wall-clock breakdown" in text
    assert "lp shards" not in text
    assert "TCP-PRESS/link-down" in text
    assert "fabric fastpath" in text


def test_perf_compare_of_a_store_with_itself_is_comparable(profiled):
    path, _report = profiled
    text, comparable = perf_compare(path, path)
    assert comparable
    assert "execute_s" in text
    assert "layer." in text


def test_perf_compare_flags_an_unprofiled_side(profiled, tmp_path):
    path, _report = profiled
    run_campaign(
        FAST, versions=VERSIONS, faults=FAULTS, store=DiskStore(tmp_path)
    )
    text, comparable = perf_compare(path, tmp_path)
    assert not comparable
    assert "no profiler data" in text


def test_cell_records_carry_every_site_and_only_the_ledger_truncates(
    profiled,
):
    """Per-cell digests are whole; the campaign's top sites are the
    costliest of the sums over every cell."""
    path, report = profiled
    assert max(len(row["profile"]["sites"]) for row in report.perf) > TOP_SITES
    sums = {}
    for row in report.perf:
        for site in row["profile"]["sites"]:
            sums[site["site"]] = sums.get(site["site"], 0.0) + site["self_s"]
    top = sorted(sums, key=lambda name: (-sums[name], name))[:TOP_SITES]
    assert [s["site"] for s in load_ledger(path)["profile"]["sites"]] == top


def test_a_rerun_that_executes_nothing_keeps_the_ledger(profiled, tmp_path):
    """Every cell from cache: nothing was profiled, so the last profiled
    campaign's ledger stays, and the notice says so."""
    path, _report = profiled
    store = tmp_path / "store"
    shutil.copytree(path, store)
    before = (store / LEDGER_NAME).read_bytes()
    _sets, report = run_campaign(
        FAST,
        versions=VERSIONS,
        faults=FAULTS,
        store=DiskStore(store),
        profile=True,
    )
    assert report.executed == 0 and report.perf == []
    assert (store / LEDGER_NAME).read_bytes() == before
    assert any("left as it was" in n for n in report.notices)


def test_memory_store_campaign_still_reports_perf():
    """No cache dir: records ride the report, a notice says where."""
    _sets, report = run_campaign(
        FAST,
        versions=VERSIONS,
        faults=[FaultKind.LINK_DOWN],
        store=MemoryStore(),
        profile=True,
    )
    assert report.perf
    assert any(n.startswith("profiler:") for n in report.notices)
    ledger = campaign_ledger(report, settings=FAST)
    assert ledger["cells"]["profiled"] == len(report.perf)


def test_unprofiled_report_builds_an_empty_ledger():
    _sets, report = run_campaign(
        FAST, versions=VERSIONS, faults=[FaultKind.LINK_DOWN]
    )
    assert report.perf == []
    ledger = campaign_ledger(report)
    assert ledger["cells"]["profiled"] == 0
    assert ledger["profile"]["layers"] == {}
