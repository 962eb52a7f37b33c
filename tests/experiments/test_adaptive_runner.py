"""Adaptive replication through the campaign runner.

Three contracts:

* determinism — an explicit ``max_replications == replications == 3``
  is byte-identical to the default fixed-3 campaign (payload
  fingerprints and traces), and serial == parallel == warm-start-off
  in both modes;
* the acceptance experiment — on the demo grid the CI-half-width policy
  reaches the fixed-10 AT/AA/P point estimates within its own reported
  CI bands while spending ≥30% fewer replications (and, because cells
  are keyed by ``sim_key()``, re-uses the fixed campaign's cells
  outright);
* the stopping reasons and the ``campaign.reps.*`` counters.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.faultload import MONTH, FaultLoad
from repro.core.metric import performability_of
from repro.core.model import evaluate
from repro.experiments.performability import banded_evaluation, _usable_load
from repro.experiments.repeaters import REASON_FIXED, REASON_MAX_REPS
from repro.experiments.runner import CampaignRunner, run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import DiskStore, MemoryStore, payload_fingerprint
from repro.faults.spec import FaultKind

#: Tiny but real grid: every cell simulates in tens of milliseconds.
TINY = Phase1Settings(
    seed=11,
    warm=5.0,
    fault_at=10.0,
    fault_duration=8.0,
    post_recovery=10.0,
    tail=5.0,
    replications=3,
)
FAULTS = (FaultKind.NODE_CRASH, FaultKind.APP_CRASH)
VERSIONS = ["TCP-PRESS"]


def _fingerprints(store: MemoryStore) -> dict:
    return {
        (k.version, k.fault, k.seed): payload_fingerprint(p)
        for k, p in store._cells.items()
    }


# ----------------------------------------------------------------------
# Byte-identity: explicit max_replications=3 == default fixed-3
# ----------------------------------------------------------------------


def test_adaptive_fixed3_is_byte_identical_to_legacy_fixed3():
    legacy_store, adaptive_store = MemoryStore(), MemoryStore()
    legacy_sets, legacy_rep = run_campaign(
        TINY, VERSIONS, FAULTS, store=legacy_store
    )
    pinned = dataclasses.replace(TINY, max_replications=3)
    adaptive_sets, adaptive_rep = run_campaign(
        pinned, VERSIONS, FAULTS, store=adaptive_store
    )
    # Identical cells, byte for byte (volatile keys excluded).
    assert _fingerprints(legacy_store) == _fingerprints(adaptive_store)
    # Identical merged outputs and grid shape.
    for v in VERSIONS:
        assert legacy_sets[v].to_dict() == adaptive_sets[v].to_dict()
    assert len(legacy_rep.cells) == len(adaptive_rep.cells)
    assert legacy_rep.policy == adaptive_rep.policy == "fixed"
    assert all(r.reps == 3 for r in adaptive_rep.repetition)
    assert all(r.reason == REASON_FIXED for r in adaptive_rep.repetition)


def test_adaptive_fixed3_traces_match_legacy(tmp_path):
    legacy_dir, adaptive_dir = tmp_path / "legacy", tmp_path / "adaptive"
    run_campaign(
        TINY,
        VERSIONS,
        (FaultKind.APP_CRASH,),
        trace_dir=str(legacy_dir),
    )
    pinned = dataclasses.replace(TINY, max_replications=3)
    run_campaign(
        pinned,
        VERSIONS,
        (FaultKind.APP_CRASH,),
        trace_dir=str(adaptive_dir),
    )
    legacy = {p.name: p.read_text() for p in legacy_dir.iterdir()}
    adaptive = {p.name: p.read_text() for p in adaptive_dir.iterdir()}
    assert legacy == adaptive


# ----------------------------------------------------------------------
# Serial == parallel == no-warm-start, in both modes
# ----------------------------------------------------------------------

#: (replications, max_replications, ci_rel_half_width).
POLICIES = [(2, None, 0.02), (2, 4, 0.08), (1, 3, 0.08)]


@pytest.mark.parametrize("policy", POLICIES, ids=["fixed", "ci", "ci-from-one"])
def test_serial_parallel_warmstart_agree(policy):
    # TINY's warm boundary (warm + fault_at = 15s) deliberately lands
    # inside the observatory's 20s SLO calibration window.  Restoring a
    # checkpoint used to diverge when the restoring process's global id
    # counters (request/message ids) collided with ids still live in the
    # restored state — the position-dependent pool-worker bug fixed by
    # snapshotting `repro.sim.ids` state in the warm blob.
    min_reps, max_reps, target = policy
    settings = dataclasses.replace(
        TINY,
        replications=min_reps,
        max_replications=max_reps,
        ci_rel_half_width=target,
    )
    results = []
    for kwargs in (
        {"jobs": 1},
        {"jobs": 2},
        {"jobs": 1, "warm_start": False},
    ):
        store = MemoryStore()
        sets, report = run_campaign(
            settings, VERSIONS, (FaultKind.APP_CRASH,), store=store, **kwargs
        )
        results.append(
            (
                _fingerprints(store),
                {v: s.to_dict() for v, s in sets.items()},
                [(r.label, r.reps, r.reason) for r in report.repetition],
            )
        )
    assert results[0] == results[1] == results[2]
    # One sample has no variance estimate: no stream converges on it.
    assert all(reps >= 2 for _, reps, _ in results[0][2])


# ----------------------------------------------------------------------
# Acceptance: CI policy vs fixed-10 on the demo grid
# ----------------------------------------------------------------------


def test_ci_policy_matches_fixed10_within_bands_and_saves_reps(tmp_path):
    demo = dataclasses.replace(TINY, seed=7, replications=10)
    versions = ["TCP-PRESS", "VIA-PRESS-0"]
    store = DiskStore(tmp_path)
    fixed_sets, fixed_rep = run_campaign(demo, versions, FAULTS, store=store)
    assert fixed_rep.reps_spent == 10 * len(fixed_rep.repetition)

    adaptive = dataclasses.replace(
        demo, replications=3, max_replications=10, ci_rel_half_width=0.05
    )
    ci_sets, ci_rep = run_campaign(adaptive, versions, FAULTS, store=store)

    # ≥30% fewer replications than the fixed-10 ceiling.
    assert ci_rep.reps_saved_fraction >= 0.30
    # Cells are keyed by sim_key(), so the adaptive pass re-used the
    # fixed campaign's cells instead of re-simulating a single one.
    assert ci_rep.executed == 0
    assert ci_rep.policy == "ci"
    assert any("saved" in n for n in ci_rep.notices)

    # Same AT/AA/P point estimates within the reported CI bands.
    load = FaultLoad.table3(app_fault_mttf=MONTH)
    for v in versions:
        bands = banded_evaluation(
            ci_sets[v], ci_rep.replicates[v], _usable_load(load, ci_sets[v])
        )
        ref = evaluate(fixed_sets[v], _usable_load(load, fixed_sets[v]))
        fixed_points = {
            "AA": ref.availability,
            "AT": ref.average_throughput,
            "P": performability_of(ref),
        }
        for metric, band in bands.items():
            assert band.n >= 2
            assert band.covers(fixed_points[metric]), (
                f"{v} {metric}: fixed-10 {fixed_points[metric]} outside "
                f"[{band.lo}, {band.hi}]"
            )


def test_adaptive_campaign_is_itself_deterministic(tmp_path):
    """Two runs of one adaptive campaign agree on reps, reasons, and
    cell content."""
    adaptive = dataclasses.replace(TINY, replications=2, max_replications=5)
    outcomes = []
    for d in ("a", "b"):
        store = DiskStore(tmp_path / d)
        _, report = run_campaign(adaptive, VERSIONS, FAULTS, store=store)
        outcomes.append(
            (
                [(r.label, r.reps, r.reason) for r in report.repetition],
                {
                    k: payload_fingerprint(p)
                    for k, p in (
                        ((kk["version"], kk["fault"], kk["seed"]), pp)
                        for kk, pp in store.iter_cells()
                    )
                },
            )
        )
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Stopping reasons and counters through the runner
# ----------------------------------------------------------------------


def _runner(settings, **kwargs) -> CampaignRunner:
    return CampaignRunner(settings, store=MemoryStore(), **kwargs)


def test_unreachable_target_runs_every_stream_to_max_reps():
    settings = dataclasses.replace(
        TINY,
        replications=2,
        max_replications=4,
        ci_rel_half_width=1e-9,  # unreachable: no stream converges
    )
    runner = _runner(settings)
    _, report = runner.run(VERSIONS, FAULTS)
    assert all(r.reps == 4 for r in report.repetition)
    assert all(r.reason == REASON_MAX_REPS for r in report.repetition)
    assert report.policy == "ci"
    assert "0% saved" in " ".join(report.notices)
    streams = len(report.repetition)
    assert runner.metrics.counter("campaign.reps.scheduled").value == (
        4 * streams
    )
    assert runner.metrics.counter("campaign.reps.skipped").value == 0


@pytest.mark.parametrize(
    "max_reps,mode", [(None, "fixed"), (3, "ci")], ids=["fixed", "ci"]
)
def test_store_summaries_name_the_mode(tmp_path, max_reps, mode):
    """The dashboard reads the mode and ceiling from each stream
    summary's policy key."""
    settings = dataclasses.replace(
        TINY, replications=2, max_replications=max_reps
    )
    store = DiskStore(tmp_path)
    run_campaign(settings, VERSIONS, (FaultKind.APP_CRASH,), store=store)
    policies = [key["policy"] for key, _ in store.iter_summaries()]
    assert len(policies) == 2  # baseline + application-crash
    assert all(p[0] == mode and p[2] == (max_reps or 2) for p in policies)


def test_counters_stay_zero_for_fixed_policy_extras():
    runner = _runner(dataclasses.replace(TINY, replications=2))
    _, report = runner.run(VERSIONS, (FaultKind.APP_CRASH,))
    assert runner.metrics.counter("campaign.reps.scheduled").value == 4
    assert runner.metrics.counter("campaign.reps.skipped").value == 0
    assert report.reps_spent == 4
    assert report.reps_saved_fraction == 0.0


# ----------------------------------------------------------------------
# Fix: replications accepted 0/negative silently (boundary validation)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1, -100])
def test_replications_zero_or_negative_raises(bad):
    with pytest.raises(ValueError, match="replications must be a positive"):
        Phase1Settings(replications=bad)


def test_replications_non_integer_raises():
    with pytest.raises(ValueError, match="replications must be a positive"):
        Phase1Settings(replications=2.5)


def test_replications_one_is_the_boundary():
    settings = Phase1Settings(replications=1)
    assert (settings.replications, settings.max_replications) == (1, None)
    # max_replications may equal replications (fixed) or exceed it.
    Phase1Settings(replications=1, max_replications=1)
    Phase1Settings(replications=1, max_replications=2)


def test_max_replications_validation_messages():
    with pytest.raises(ValueError, match="max_replications must be an"):
        Phase1Settings(replications=4, max_replications=2)
    with pytest.raises(ValueError, match="max_replications must be an"):
        Phase1Settings(replications=2, max_replications=2.5)
    with pytest.raises(ValueError, match="ci_rel_half_width"):
        Phase1Settings(ci_rel_half_width=0.0)
