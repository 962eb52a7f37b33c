"""Tests for the text reports."""

import pytest

from repro.analysis.report import (
    campaign_report,
    category_breakdown,
    profile_table,
    result_summary,
)
from repro.core.faultload import ComponentFault, FaultLoad
from repro.core.model import ProfileSet, evaluate
from repro.core.stages import SevenStageProfile, Stage
from repro.faults.spec import FaultKind


@pytest.fixture
def profiles():
    ps = ProfileSet("TCP-PRESS", 5000.0)
    ps.add(
        SevenStageProfile.from_pairs(
            "node-crash", "TCP-PRESS", 5000.0,
            [(Stage.A, 15.0, 1000.0), (Stage.C, 160.0, 3500.0)],
        )
    )
    ps.add(SevenStageProfile.no_impact("memory-pinning", "TCP-PRESS", 5000.0))
    return ps


@pytest.fixture
def result(profiles):
    load = FaultLoad(
        components=(
            ComponentFault(FaultKind.NODE_CRASH, mttf=300_000.0, mttr=180.0),
            ComponentFault(FaultKind.MEMORY_PINNING, mttf=5e6, mttr=180.0),
        )
    )
    return evaluate(profiles, load)


def test_profile_table_lists_stages(profiles):
    out = profile_table(profiles)
    assert "node-crash" in out
    assert "15.0s@  1000" in out
    assert "—" in out  # absent stages


def test_result_summary_has_headline_and_bars(result):
    out = result_summary(result)
    assert "AA =" in out and "P =" in out
    assert "node-crash" in out
    assert "█" in out


def test_category_breakdown_sums_to_unavailability(result):
    groups = category_breakdown(result)
    assert sum(groups.values()) == pytest.approx(result.unavailability)
    assert "node" in groups


def test_campaign_report_covers_both_phases(profiles):
    out = campaign_report({"TCP-PRESS": profiles})
    assert "PHASE 1" in out and "PHASE 2" in out
    assert "1/day" in out and "1/month" in out
