"""The flight recorder is pure observation: profiled == unprofiled.

The load-bearing contract of ``--profile``: attaching a FlightRecorder
reads wall-clock and increments counters but never schedules events,
mutates component state, or perturbs iteration order, so every
simulation output is byte-identical with and without it — across the
fabric fast path and the campaign cache.  The perf
records themselves land in the store's volatile ``perf/`` namespace,
which ``store-diff`` and payload fingerprints ignore.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.extract import extract_profile
from repro.core.stages import STAGES, SevenStageProfile
from repro.experiments.phase1 import run_single_fault
from repro.experiments.runner import run_campaign
from repro.experiments.settings import FAULT_MTTR, Phase1Settings
from repro.experiments.store import DiskStore, payload_fingerprint
from repro.faults.spec import FaultKind
from repro.obs.profiler import FlightRecorder
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


def _measure(version, kind, settings=GOLDEN_SETTINGS, profiler=None):
    record, cluster = run_single_fault(
        ALL_VERSIONS_EXTENDED[version], kind, settings, profiler=profiler
    )
    return extract_profile(
        record, mttr=FAULT_MTTR[kind], env=settings.environment
    )


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_profiled_run_matches_golden_fixture(version, kind):
    """Profiling every event still reproduces the golden profiles."""
    path = GOLDEN_DIR / f"{version}_{kind.value}.json"
    golden = SevenStageProfile.from_dict(json.loads(path.read_text()))
    rec = FlightRecorder()
    measured = _measure(version, kind, profiler=rec)
    assert rec.digest()["events"] > 0, "recorder saw no events — it's dead"
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
def test_profiled_and_plain_runs_are_bit_identical(version, kind):
    plain = _measure(version, kind)
    profiled = _measure(version, kind, profiler=FlightRecorder())
    assert profiled.to_dict() == plain.to_dict()


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_profiled_matches_plain_in_both_fabric_modes(fastpath):
    """The profiler's fastpath counters observe, never steer."""
    version, kind = GOLDEN_CASES[0]
    settings = dataclasses.replace(GOLDEN_SETTINGS, fastpath=fastpath)
    plain = _measure(version, kind, settings)
    rec = FlightRecorder()
    profiled = _measure(version, kind, settings, profiler=rec)
    assert profiled.to_dict() == plain.to_dict()
    counters = rec.counters
    if fastpath:
        assert counters.get("fabric.fast_cached", 0) > 0
    else:
        assert counters.get("fabric.fast_cached", 0) == 0
        assert counters.get("fabric.fast_checked", 0) == 0


def _campaign(tmp, profile):
    return run_campaign(
        GOLDEN_SETTINGS,
        versions=["TCP-PRESS"],
        faults=[FaultKind.LINK_DOWN],
        store=DiskStore(tmp),
        profile=profile,
    )


def test_profiled_campaign_payloads_match_plain(tmp_path):
    """Cell-for-cell, a --profile store fingerprints like a plain one."""
    _sets_a, _rep_a = _campaign(tmp_path / "plain", False)
    _sets_b, rep_b = _campaign(tmp_path / "profiled", True)
    assert rep_b.perf, "profiled campaign recorded no perf records"
    plain = {
        (k["version"], k["fault"], k["seed"]): payload_fingerprint(p)
        for k, p in DiskStore(tmp_path / "plain").iter_cells()
    }
    profiled = {
        (k["version"], k["fault"], k["seed"]): payload_fingerprint(p)
        for k, p in DiskStore(tmp_path / "profiled").iter_cells()
    }
    assert plain and plain == profiled


def test_perf_namespace_never_reaches_cell_payloads(tmp_path):
    """Perf records live in perf/, not in the deterministic payloads."""
    _campaign(tmp_path, True)
    store = DiskStore(tmp_path)
    assert (tmp_path / "perf").is_dir()
    assert list(store.iter_perf()), "no perf records persisted"
    for _key, payload in store.iter_cells():
        assert "perf" not in payload


def test_store_diff_calls_profiled_and_plain_stores_identical(tmp_path):
    """The CI perf-smoke check, in-process: store-diff exits clean."""
    from repro.__main__ import main

    _campaign(tmp_path / "a", False)
    _campaign(tmp_path / "b", True)
    # store-diff sys.exit()s non-zero on any payload mismatch; reaching
    # the return is the assertion.
    main(
        [
            "store-diff",
            str(tmp_path / "a"),
            str(tmp_path / "b"),
        ]
    )
