"""The observer effect is zero: tracing must not change any result.

Publishing events and recording metrics never schedules engine timers or
touches RNG streams, so a traced run must produce bit-identical profiles
to an untraced one — including against the pinned golden fixtures.
"""

import json
from pathlib import Path

import pytest

from repro.core.extract import extract_profile
from repro.core.stages import STAGES, SevenStageProfile
from repro.experiments.phase1 import run_single_fault
from repro.experiments.runner import run_campaign
from repro.experiments.settings import FAULT_MTTR, Phase1Settings
from repro.faults.spec import FaultKind
from repro.obs.bus import EventRecorder
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED

GOLDEN_DIR = Path(__file__).parent.parent / "core" / "golden"

#: Must match tests/core/test_golden_profiles.py exactly.
GOLDEN_SETTINGS = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=1234,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=1,
)

GOLDEN_CASES = (
    ("TCP-PRESS", FaultKind.LINK_DOWN),
    ("VIA-PRESS-5", FaultKind.NODE_CRASH),
)


def _measure(version: str, kind: FaultKind, recorder=None) -> SevenStageProfile:
    record, _cluster = run_single_fault(
        ALL_VERSIONS_EXTENDED[version], kind, GOLDEN_SETTINGS,
        recorder=recorder,
    )
    return extract_profile(
        record, mttr=FAULT_MTTR[kind], env=GOLDEN_SETTINGS.environment
    )


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_traced_run_matches_golden_fixture(version, kind):
    """A run with a recorder attached still reproduces the goldens."""
    path = GOLDEN_DIR / f"{version}_{kind.value}.json"
    golden = SevenStageProfile.from_dict(json.loads(path.read_text()))
    recorder = EventRecorder(keep_events=True)
    measured = _measure(version, kind, recorder=recorder)
    assert recorder.total > 0, "recorder saw no events — tracing is dead"
    assert measured.version == golden.version
    assert measured.fault == golden.fault
    assert measured.normal_throughput == pytest.approx(
        golden.normal_throughput, rel=1e-6
    )
    for stage in STAGES:
        assert measured.duration(stage) == pytest.approx(
            golden.duration(stage), rel=1e-6, abs=1e-9
        ), f"{version}/{kind.value} stage {stage.value} duration"
        assert measured.throughput(stage) == pytest.approx(
            golden.throughput(stage), rel=1e-6, abs=1e-9
        ), f"{version}/{kind.value} stage {stage.value} throughput"


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_traced_and_untraced_runs_are_bit_identical(version, kind):
    untraced = _measure(version, kind)
    traced = _measure(version, kind, recorder=EventRecorder())
    assert traced.to_dict() == untraced.to_dict()


def test_traced_campaign_profiles_match_untraced(tmp_path):
    """run_campaign with --trace-dir yields bit-identical ProfileSets."""
    settings = GOLDEN_SETTINGS
    plain, _ = run_campaign(
        settings, versions=["TCP-PRESS"], faults=[FaultKind.LINK_DOWN]
    )
    traced, _ = run_campaign(
        settings, versions=["TCP-PRESS"], faults=[FaultKind.LINK_DOWN],
        trace_dir=str(tmp_path),
    )
    assert traced["TCP-PRESS"].to_dict() == plain["TCP-PRESS"].to_dict()
    assert list(tmp_path.glob("*.jsonl")), "tracing emitted no files"
