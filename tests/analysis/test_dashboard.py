"""The campaign dashboard: one self-contained HTML file per store.

A small real campaign (two versions, one fault) is rendered once per
module; the assertions check coverage (every cell represented), the
self-containment contract (no scripts, stylesheets, or network fetches),
and the warning paths for stale-schema cells and subscriber errors.
"""

import json

import pytest

from repro.analysis.dashboard import (
    _collect,
    _merge,
    dashboard_from_store,
    render_dashboard,
)
from repro.experiments.runner import run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import SCHEMA_VERSION, CellKey, DiskStore
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE, ExperimentScale

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

VERSIONS = ["TCP-PRESS", "VIA-PRESS-5"]
FAULT = FaultKind.LINK_DOWN


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign-store")
    run_campaign(
        FAST, versions=VERSIONS, faults=[FAULT], store=DiskStore(path)
    )
    return path


@pytest.fixture(scope="module")
def html(store_dir):
    return dashboard_from_store(store_dir).read_text(encoding="utf-8")


def test_dashboard_lands_inside_the_store_by_default(store_dir):
    out = dashboard_from_store(store_dir)
    assert out == store_dir / "dashboard.html"
    assert out.exists()


def test_dashboard_covers_every_cell(html):
    for version in VERSIONS:
        assert version in html
    assert FAULT.value in html
    # One stage-banded timeline per (version, fault-or-baseline) pair.
    assert html.count("<figure>") == 2 * len(VERSIONS)
    assert html.count("<svg") == 2 * len(VERSIONS)
    for section in (
        "overview",
        "performability",
        "fault matrix",
        "timelines",
        "detector divergence",
        "run health",
    ):
        assert f"<h2>{section}</h2>" in html, section


def test_dashboard_is_self_contained(html):
    assert "<script" not in html
    assert "<link" not in html
    assert "@import" not in html
    # The only URL allowed is the SVG namespace identifier (never
    # fetched), so the dashboard renders from a file:// open with the
    # network cable unplugged.
    stripped = html.replace("http://www.w3.org/2000/svg", "")
    assert "http://" not in stripped and "https://" not in stripped


def test_dashboard_rebuilds_performability_per_version(html):
    # Both fault loads evaluated, one table row per version in each.
    assert html.count("fault load:") == 2
    for version in VERSIONS:
        assert html.count(f"<td class='label'>{version}</td>") >= 2


def test_divergence_and_health_tables_have_fault_rows(html):
    assert "max boundary err" in html
    assert "time in violation" in html
    assert "calibrated Tn" in html


def test_stale_schema_cells_are_ignored_with_a_warning():
    rows = [
        _row(seed=1, schema=3, kind="baseline", tn=10.0),
        # Orphaned old-generation cell: no current-schema counterpart.
        _row(seed=999, schema=1, kind="baseline", tn=999.0),
    ]
    html = render_dashboard(rows)
    assert "1 cell(s) from older store schema" in html
    assert "999" not in html  # the stale payload contributes nothing


def test_same_cell_across_schemas_keeps_the_newest_silently():
    rows = [
        _row(seed=1, schema=1, kind="baseline", tn=999.0),
        _row(seed=1, schema=3, kind="baseline", tn=10.0),
    ]
    html = render_dashboard(rows)
    assert "older store schema" not in html
    assert "999" not in html


def test_empty_or_missing_store_raises(tmp_path):
    with pytest.raises(ValueError, match="no campaign cells"):
        dashboard_from_store(tmp_path)
    with pytest.raises(ValueError, match="not a directory"):
        dashboard_from_store(tmp_path / "nope")


def _row(version="V", fault=None, seed=1, schema=3, **payload):
    key = {"version": version, "fault": fault, "seed": seed, "schema": schema}
    return key, payload


def test_render_escapes_untrusted_store_content():
    evil = "<script>alert(1)</script>"
    html = render_dashboard([_row(version=evil)], source=evil)
    assert evil not in html
    assert html.count("&lt;script&gt;") >= 2


def test_render_warns_on_subscriber_errors():
    rows = [
        _row(seed=1, telemetry={"subscriber_errors": 2}),
        _row(seed=2, fault="link-down", telemetry={"subscriber_errors": 1}),
    ]
    html = render_dashboard(rows)
    assert "3 bus subscriber error(s)" in html
    assert "partial event stream" in html


def test_render_degrades_gracefully_without_observatory_payloads():
    """Pre-v3-shaped payloads (no timeline/observatory/divergence) still
    render — with placeholder notes instead of charts."""
    rows = [
        _row(seed=1, kind="baseline", tn=10.0),
        _row(seed=2, fault="link-down", kind="profile"),
    ]
    html = render_dashboard(rows)
    assert "no timelines stored" in html
    assert "no divergence reports stored" in html
    assert "no health telemetry stored" in html
    assert "<script" not in html


def test_stored_payloads_are_json_round_trippable(store_dir):
    """The dashboard consumes exactly what the store persisted: every
    payload section it reads must already be plain JSON."""
    rows = list(DiskStore(store_dir).iter_cells())
    assert rows, "fixture store is empty"
    for key, payload in rows:
        json.dumps(payload)
        assert "telemetry" in payload
        assert "observatory" in payload
        assert "timeline" in payload
        if key["fault"] is not None:
            assert "divergence" in payload


def test_dashboard_merge_matches_the_runner_field_for_field(tmp_path):
    """The dashboard rebuilds the runner's ProfileSets bit for bit.

    Regression: the dashboard once summed replications in seed-string
    order (2, 1, 0 for this campaign), so its stage-B throughput for
    application-crash differed from the runner's in the last digit.
    """
    settings = Phase1Settings(
        scale=ExperimentScale(cpu_factor=200), seed=2, replications=3
    )
    campaign, report = run_campaign(
        settings,
        versions=["TCP-PRESS"],
        faults=[FaultKind.APP_CRASH],
        store=DiskStore(tmp_path),
    )
    kept, _ = _collect(DiskStore(tmp_path).iter_cells())
    merged, replicates = _merge(kept)
    assert merged["TCP-PRESS"].to_dict() == campaign["TCP-PRESS"].to_dict()
    assert len(report.replicates["TCP-PRESS"]) == 3
    assert [ps.to_dict() for ps in replicates["TCP-PRESS"]] == [
        ps.to_dict() for ps in report.replicates["TCP-PRESS"]
    ]


def _put_mixed_settings_store(path, scales=(200, 100)):
    """One store holding TCP-PRESS x application-crash (baseline + fault,
    one replication) at each of ``scales``: same seeds, different
    settings keys."""
    store = DiskStore(path)
    for factor in scales:
        sim_key = Phase1Settings(
            scale=ExperimentScale(cpu_factor=factor)
        ).sim_key()
        for fault in (None, FaultKind.APP_CRASH.value):
            store.put(
                CellKey(
                    version="TCP-PRESS",
                    settings_key=sim_key,
                    fault=fault,
                    seed=7,
                    rep=0,
                ),
                {"tn": float(factor)},
            )
    return path


def test_dashboard_refuses_a_store_that_mixes_settings(tmp_path):
    store = _put_mixed_settings_store(tmp_path / "mixed")
    with pytest.raises(ValueError, match="4 cell"):
        dashboard_from_store(store)
    assert not (store / "dashboard.html").exists()
    # One settings universe renders.
    single = _put_mixed_settings_store(tmp_path / "single", scales=(200,))
    assert dashboard_from_store(single).exists()


def test_dashboard_cli_exits_with_a_message_on_a_mixed_store(tmp_path):
    from repro.__main__ import main

    store = _put_mixed_settings_store(tmp_path / "mixed")
    with pytest.raises(SystemExit) as exc:
        main(["dashboard", str(store)])
    assert str(exc.value.code).startswith("dashboard: 4 cell(s)")


def test_collision_is_judged_on_the_newest_generation_only():
    old = SCHEMA_VERSION - 1
    rows = [
        _row(seed=1, schema=old, tn=1.0),
        _row(seed=1, schema=old, tn=2.0),
        _row(seed=1, schema=SCHEMA_VERSION, tn=3.0),
    ]
    kept, stale = _collect(rows)
    assert [c.payload["tn"] for c in kept] == [3.0]
    assert stale == 0
