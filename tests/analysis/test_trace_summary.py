"""Rendering of the campaign run-telemetry summary.

``trace_summary_report`` takes a ``CampaignReport``; these tests build
reports by hand to pin the aggregation and every rendering branch —
notices first, then the event table.
"""

from repro.analysis.report import trace_summary_report
from repro.experiments.runner import CampaignReport, CellRecord


def _cell(version="TCP-PRESS", fault=None, telemetry=None, cached=True):
    return CellRecord(
        version=version, fault=fault, rep=0, seed=1,
        elapsed=0.0, cached=cached, telemetry=telemetry or _telemetry({}),
        observatory={},
    )


def _telemetry(events):
    return {
        "event_total": sum(events.values()),
        "events": dict(events),
        "metrics": {},
    }


def test_totals_are_summed_across_cells():
    report = CampaignReport(cells=[
        _cell(telemetry=_telemetry({"press.cache.hit": 3})),
        _cell(fault="link-down",
              telemetry=_telemetry({"press.cache.hit": 2, "net.frame.drop": 1})),
    ])
    text = trace_summary_report(report)
    assert "run telemetry: 6 events across 2 cell(s)" in text
    assert "press.cache.hit" in text and "net.frame.drop" in text


def test_notices_render_first_as_note_lines():
    report = CampaignReport(
        cells=[_cell(telemetry=_telemetry({"press.cache.hit": 1}))],
        notices=["cache invalidated (schema v2→v3): 4 cell(s) re-run",
                 "2 bus subscriber error(s) across 1 cell(s)"],
    )
    lines = trace_summary_report(report).splitlines()
    assert lines[0] == "note: cache invalidated (schema v2→v3): 4 cell(s) re-run"
    assert lines[1] == "note: 2 bus subscriber error(s) across 1 cell(s)"
    assert lines[2].startswith("run telemetry:")


def test_empty_report_renders_empty():
    assert trace_summary_report(CampaignReport()) == ""
