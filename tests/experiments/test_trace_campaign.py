"""Campaign-level tracing and run telemetry.

A traced campaign emits one trace file per cell, records per-cell
telemetry into the store payloads (schema v2), bypasses the cache so
every traced cell actually executes, and surfaces store notices on the
report.
"""

from repro.analysis.report import trace_summary_report
from repro.experiments.runner import run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import SCHEMA_VERSION, CellKey, DiskStore
from repro.faults.spec import FaultKind
from repro.obs.exporters import validate_trace_dir
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
FAULTS = [FaultKind.LINK_DOWN]


def _run(**kwargs):
    return run_campaign(FAST, versions=VERSIONS, faults=FAULTS, **kwargs)


def test_traced_campaign_emits_one_trace_per_cell(tmp_path):
    _sets, report = _run(trace_dir=str(tmp_path))
    # 1 baseline + 1 fault cell, two files each.
    counts = validate_trace_dir(tmp_path)
    assert set(counts) == {
        "TCP-PRESS__baseline__rep0.jsonl",
        "TCP-PRESS__baseline__rep0.trace.json",
        "TCP-PRESS__link-down__rep0.jsonl",
        "TCP-PRESS__link-down__rep0.trace.json",
    }
    assert all(n > 0 for n in counts.values())
    assert len(report.cells) == 2


def test_every_executed_cell_records_telemetry():
    _sets, report = _run()
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.telemetry is not None
        assert cell.telemetry["event_total"] == sum(
            cell.telemetry["events"].values()
        )
        assert "metrics" in cell.telemetry
    totals = report.event_totals()
    assert totals.get("fault.injector.injected") == 1
    assert totals.get("press.cache.hit", 0) > 0


def test_cached_cells_keep_their_stored_telemetry(tmp_path):
    store = DiskStore(tmp_path)
    _run(store=store)
    _sets, rerun = _run(store=store)
    assert all(c.cached for c in rerun.cells)
    assert all(c.telemetry is not None for c in rerun.cells)


def test_tracing_bypasses_the_cache(tmp_path):
    store = DiskStore(tmp_path / "cache")
    _run(store=store)  # warm
    _sets, traced = _run(store=store, trace_dir=str(tmp_path / "traces"))
    assert all(not c.cached for c in traced.cells)
    validate_trace_dir(tmp_path / "traces")


def test_traced_results_still_persist_for_warm_replay(tmp_path):
    """Tracing forces execution but not amnesia: the traced cells land in
    the store, so the next un-traced campaign replays entirely warm and
    agrees bit-for-bit."""
    store = DiskStore(tmp_path / "cache")
    traced_sets, traced = _run(
        store=store, trace_dir=str(tmp_path / "traces")
    )
    assert all(not c.cached for c in traced.cells)
    assert len(store) == len(traced.cells)
    warm_sets, warm = _run(store=store)
    assert all(c.cached for c in warm.cells)
    assert warm.executed == 0
    assert warm_sets["TCP-PRESS"].to_dict() == traced_sets["TCP-PRESS"].to_dict()


def test_schema_notice_reaches_the_report(tmp_path):
    from repro.experiments.runner import cell_seed

    store = DiskStore(tmp_path)
    # Simulate a cache written before the telemetry bump: one baseline
    # cell stored under schema v1 at the exact key the campaign will ask
    # for.
    key = CellKey(
        version="TCP-PRESS",
        settings_key=FAST.sim_key(),
        fault=None,
        seed=cell_seed(
            FAST.seed, "TCP-PRESS", 0, warm=FAST.warm, fault_at=FAST.fault_at
        ),
        schema=1,
    )
    store.put(key, {"kind": "baseline", "tn": 1.0, "elapsed": 0.0})
    _sets, report = _run(store=store)
    assert any(
        f"schema v1→v{SCHEMA_VERSION}" in n for n in report.notices
    )
    assert trace_summary_report(report).startswith("note: cache invalidated")
    # A second campaign hits the refreshed cache: no new notices.
    _sets, again = _run(store=store)
    assert again.notices == []


def test_trace_summary_report_renders_totals():
    _sets, report = _run()
    text = trace_summary_report(report)
    assert "run telemetry:" in text
    assert "press.cache.hit" in text
