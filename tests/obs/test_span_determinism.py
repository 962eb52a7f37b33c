"""Span collection is pure observation: results and exports are stable.

Two contracts, both load-bearing for the campaign cache:

* **Zero observer effect** — a run with a SpanCollector attached
  produces bit-identical profiles (and golden fixtures) to a plain run:
  span sites only read engine state, they never schedule or mutate.
* **Deterministic export** — running the same span-enabled campaign
  twice writes byte-identical span files: ids rewind per run, sim times
  are exact, and records are serialized with sorted keys.
"""

import json
from pathlib import Path

import pytest

from repro.core.extract import extract_profile
from repro.core.stages import SevenStageProfile
from repro.experiments.phase1 import run_single_fault
from repro.experiments.runner import run_campaign
from repro.experiments.settings import FAULT_MTTR, Phase1Settings
from repro.faults.spec import FaultKind
from repro.obs.spans import SpanCollector
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


def _measure(version: str, kind: FaultKind, spans=None) -> SevenStageProfile:
    record, cluster = run_single_fault(
        ALL_VERSIONS_EXTENDED[version], kind, GOLDEN_SETTINGS, spans=spans
    )
    if spans is not None:
        spans.finish(cluster.engine.now)
    return extract_profile(
        record, mttr=FAULT_MTTR[kind], env=GOLDEN_SETTINGS.environment
    )


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_span_enabled_run_matches_golden_fixture(version, kind):
    """Collecting every request's spans still reproduces the goldens."""
    path = GOLDEN_DIR / f"{version}_{kind.value}.json"
    golden = SevenStageProfile.from_dict(json.loads(path.read_text()))
    spans = SpanCollector()
    measured = _measure(version, kind, spans=spans)
    assert spans.n_traces > 0, "collector saw no requests — spans are dead"
    assert measured.normal_throughput == pytest.approx(
        golden.normal_throughput, rel=1e-6
    )
    from repro.core.stages import STAGES

    for stage in STAGES:
        assert measured.duration(stage) == pytest.approx(
            golden.duration(stage), rel=1e-6, abs=1e-9
        ), f"{version}/{kind.value} stage {stage.value} duration"
        assert measured.throughput(stage) == pytest.approx(
            golden.throughput(stage), rel=1e-6, abs=1e-9
        ), f"{version}/{kind.value} stage {stage.value} throughput"


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_span_enabled_and_plain_runs_are_bit_identical(version, kind):
    plain = _measure(version, kind)
    spanned = _measure(version, kind, spans=SpanCollector())
    assert spanned.to_dict() == plain.to_dict()


def _spanned_campaign(spans_dir) -> dict:
    sets, _ = run_campaign(
        GOLDEN_SETTINGS,
        versions=["TCP-PRESS"],
        faults=[FaultKind.LINK_DOWN],
        spans_dir=str(spans_dir),
    )
    return sets


def test_span_campaign_results_match_plain_campaign(tmp_path):
    """--spans forces cells cold, yet every number stays bit-identical."""
    plain, _ = run_campaign(
        GOLDEN_SETTINGS, versions=["TCP-PRESS"], faults=[FaultKind.LINK_DOWN]
    )
    spanned = _spanned_campaign(tmp_path / "spans")
    assert spanned["TCP-PRESS"].to_dict() == plain["TCP-PRESS"].to_dict()
    assert list((tmp_path / "spans").glob("*.spans.jsonl")), (
        "span campaign emitted no files"
    )


def test_span_export_is_byte_identical_across_runs(tmp_path):
    """The spans-smoke CI check: two identical campaigns, same bytes.

    Global id counters rewind at each run's start, so request/span ids —
    and therefore the exported records — are a pure function of
    (version, fault, settings, seed), not of process history.
    """
    _spanned_campaign(tmp_path / "a")
    _spanned_campaign(tmp_path / "b")
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b and names_a, "runs exported different files"
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), f"{name} differs between identical runs"


def test_spans_identical_with_and_without_fastpath():
    """The coalesced network fast path changes scheduling, not spans."""
    import dataclasses

    version, kind = GOLDEN_CASES[0]
    records = []
    for fastpath in (True, False):
        settings = dataclasses.replace(GOLDEN_SETTINGS, fastpath=fastpath)
        spans = SpanCollector()
        _rec, cluster = run_single_fault(
            ALL_VERSIONS_EXTENDED[version], kind, settings, spans=spans
        )
        spans.finish(cluster.engine.now)
        records.append([s.to_record() for s in spans.spans])
    assert records[0] == records[1]
