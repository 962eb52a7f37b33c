"""Subscriber errors must surface, not vanish.

A subscriber that raises is isolated by the bus (the run continues), but
the failure cannot be silent: the count flows bus → per-cell telemetry →
campaign notice → rendered report, and this file pins each hop.
"""

import pytest

from repro.analysis.report import trace_summary_report
from repro.core.stages import SevenStageProfile
from repro.experiments import runner as runner_mod
from repro.experiments.phase1 import run_baseline
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import MemoryStore
from repro.faults.spec import FaultKind
from repro.obs.exporters import telemetry_summary
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED
from tests.payloads import cell_payload

SHORT = Phase1Settings(
    scale=SMOKE_SCALE, seed=7, warm=5.0, fault_at=10.0, replications=1
)


class _ExplodingObserver:
    """An observer whose callback raises on every cache hit."""

    def attach(self, bus):
        bus.subscribe(self._boom, names=["press.cache.hit"])
        return self

    def _boom(self, event):
        raise RuntimeError("observer bug")


def test_raising_observer_is_isolated_and_counted_in_telemetry():
    tn, cluster = run_baseline(
        ALL_VERSIONS_EXTENDED["TCP-PRESS"], SHORT,
        recorder=_ExplodingObserver(),
    )
    assert tn > 0  # the run itself is unharmed
    assert cluster.bus.subscriber_errors > 0
    summary = telemetry_summary(None, cluster.metrics, bus=cluster.bus)
    assert summary["subscriber_errors"] == cluster.bus.subscriber_errors


def test_telemetry_summary_without_a_bus_omits_the_counter():
    assert "subscriber_errors" not in telemetry_summary(None)


def _fake_cell(subscriber_errors):
    """A worker double returning merge-valid payloads with error counts."""
    telemetry = {
        "event_total": 1,
        "events": {"press.cache.hit": 1},
        "metrics": {},
        "subscriber_errors": subscriber_errors,
    }
    profile = SevenStageProfile(
        fault=FaultKind.LINK_DOWN.value,
        version="TCP-PRESS",
        normal_throughput=100.0,
    )

    def cell(version, fault, settings, seed, trace=None, spans=None,
             warm=None):
        if fault is None:
            return cell_payload(tn=100.0, telemetry=dict(telemetry))
        return cell_payload(
            fault, profile=profile.to_dict(), telemetry=dict(telemetry)
        )

    return cell


def _campaign_with_errors(monkeypatch, subscriber_errors):
    monkeypatch.setattr(
        runner_mod, "_run_cell", _fake_cell(subscriber_errors)
    )
    _sets, report = runner_mod.run_campaign(
        SHORT, versions=["TCP-PRESS"], faults=[FaultKind.LINK_DOWN],
        store=MemoryStore(),
    )
    return report


def test_campaign_surfaces_subscriber_errors_as_a_notice(monkeypatch):
    report = _campaign_with_errors(monkeypatch, subscriber_errors=2)
    (notice,) = [n for n in report.notices if "subscriber error" in n]
    assert notice.startswith("4 bus subscriber error(s) across 2 cell(s)")
    assert "partial event stream" in notice
    # ...and the rendered telemetry report carries it as a note line.
    text = trace_summary_report(report)
    assert "note: 4 bus subscriber error(s)" in text


def test_clean_campaign_has_no_subscriber_error_notice(monkeypatch):
    report = _campaign_with_errors(monkeypatch, subscriber_errors=0)
    assert not [n for n in report.notices if "subscriber error" in n]
