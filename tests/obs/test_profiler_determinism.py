"""The layer profiler is pure observation: profiled == unprofiled.

The load-bearing contract of ``--profile``: wrapping every layer's entry
points reads wall-clock and counts calls but never schedules events,
mutates component state, or perturbs iteration order, so every
simulation output is byte-identical with and without it — across the
fabric fast path, warm-start checkpoints captured or restored on either
side of the wrapping, pool workers, and the campaign cache.  The perf
records themselves land only in the ``BENCH_campaign.json`` ledger,
which ``store-diff`` and payload fingerprints ignore.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.extract import extract_profile
from repro.core.stages import STAGES, SevenStageProfile
from repro.experiments.phase1 import run_single_fault
from repro.experiments.runner import (
    _profiled_cell,
    _run_cell,
    run_campaign,
)
from repro.experiments.settings import FAULT_MTTR, Phase1Settings
from repro.experiments.store import DiskStore, payload_fingerprint
from repro.experiments.warmstart import STATUS_HIT, STATUS_MISS, WarmSpec
from repro.faults.spec import FaultKind
from repro.obs.profiler import LayerProfiler
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
    def cell():
        record, _cluster = run_single_fault(
            ALL_VERSIONS_EXTENDED[version], kind, settings
        )
        return record

    record = cell() if profiler is None else profiler.run(cell)
    return extract_profile(
        record, mttr=FAULT_MTTR[kind], env=settings.environment
    )


@pytest.mark.parametrize("version,kind", GOLDEN_CASES)
def test_profiled_run_matches_golden_fixture(version, kind):
    """Profiling every layer still reproduces the golden profiles."""
    path = GOLDEN_DIR / f"{version}_{kind.value}.json"
    golden = SevenStageProfile.from_dict(json.loads(path.read_text()))
    profiler = LayerProfiler()
    measured = _measure(version, kind, profiler=profiler)
    assert profiler.digest()["events"] > 0, "profiler saw no events — dead"
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
    profiled = _measure(version, kind, profiler=LayerProfiler())
    assert profiled.to_dict() == plain.to_dict()


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
def test_profiled_matches_plain_in_both_fabric_modes(fastpath):
    """The profiler's frame counts observe, never steer."""
    version, kind = GOLDEN_CASES[0]
    settings = dataclasses.replace(GOLDEN_SETTINGS, fastpath=fastpath)
    plain = _measure(version, kind, settings)
    profiler = LayerProfiler()
    profiled = _measure(version, kind, settings, profiler=profiler)
    assert profiled.to_dict() == plain.to_dict()
    fabric = profiler.digest()["fabric"]
    assert fabric["reference_frames"] > 0  # the link fault forces it
    if fastpath:
        assert fabric["fast_frames"] > 0
    else:
        assert fabric["fast_frames"] == 0


# ----------------------------------------------------------------------
# One cell, profiled and plain, on each side of a warm-start checkpoint
# ----------------------------------------------------------------------

CELL_VERSION, CELL_FAULT = "VIA-PRESS-5", FaultKind.LINK_DOWN


def _cell(warm=None, profiled=False):
    args = (CELL_VERSION, CELL_FAULT.value, GOLDEN_SETTINGS, 1234, None, None,
            warm)
    if profiled:
        payload = _profiled_cell(_run_cell, *args)
        assert payload.pop("perf")["profile"]["events"] > 0
        return payload
    return _run_cell(*args)


def test_cold_cell_payload_is_identical_when_profiled():
    plain = _cell()
    profiled = _cell(profiled=True)
    assert payload_fingerprint(profiled) == payload_fingerprint(plain)


def test_warm_checkpoints_cross_the_profiler_boundary(tmp_path):
    """A checkpoint captured while wrapped (warm miss) restores in a
    plain cell (warm hit), and both payloads match a cold plain cell."""
    cold = payload_fingerprint(_cell())
    warm = WarmSpec(dir=str(tmp_path))
    miss = _cell(warm, profiled=True)
    assert miss["warm_start"]["status"] == STATUS_MISS
    assert payload_fingerprint(miss) == cold
    hit = _cell(warm)
    assert hit["warm_start"]["status"] == STATUS_HIT
    assert payload_fingerprint(hit) == cold


def test_profiled_baseline_cell_restores_a_plain_checkpoint(tmp_path):
    warm = WarmSpec(dir=str(tmp_path))
    args = ("TCP-PRESS", None, GOLDEN_SETTINGS, 1234, None, None, warm)
    plain = _run_cell(*args)
    assert plain["warm_start"]["status"] == STATUS_MISS
    profiled = _profiled_cell(_run_cell, *args)
    assert profiled.pop("perf")["warm_status"] == STATUS_HIT
    assert payload_fingerprint(profiled) == payload_fingerprint(plain)


def _campaign(tmp, profile, jobs=1):
    return run_campaign(
        GOLDEN_SETTINGS,
        versions=["TCP-PRESS"],
        faults=[FaultKind.LINK_DOWN],
        store=DiskStore(tmp),
        profile=profile,
        jobs=jobs,
    )


def _fingerprints(path):
    return {
        (k["version"], k["fault"], k["seed"]): payload_fingerprint(p)
        for k, p in DiskStore(path).iter_cells()
    }


def _check_profiled_campaign(tmp_path, jobs):
    _sets_a, _rep_a = _campaign(tmp_path / "plain", False)
    _sets_b, rep_b = _campaign(tmp_path / "profiled", True, jobs=jobs)
    assert rep_b.jobs == jobs
    assert len(rep_b.perf) == len(rep_b.cells) == 2
    for row in rep_b.perf:
        assert row["profile"]["events"] > 0
    plain = _fingerprints(tmp_path / "plain")
    assert plain and plain == _fingerprints(tmp_path / "profiled")


def test_profiled_campaign_payloads_match_plain(tmp_path):
    """Cell-for-cell, a --profile store fingerprints like a plain one."""
    _check_profiled_campaign(tmp_path, jobs=1)


def test_profiled_pool_campaign_payloads_match_plain(tmp_path):
    """Pool workers install the profiler themselves; same payloads."""
    _check_profiled_campaign(tmp_path, jobs=2)


def test_perf_namespace_never_reaches_cell_payloads(tmp_path):
    """Perf records live in the ledger, not in the deterministic
    payloads (and no ``perf/`` namespace is written)."""
    from repro.analysis.perf import load_ledger

    _campaign(tmp_path, True)
    store = DiskStore(tmp_path)
    assert not (tmp_path / "perf").exists()
    assert load_ledger(tmp_path)["cell_rows"], "no perf records persisted"
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
