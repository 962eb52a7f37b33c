"""The §9 crossover band, on hand-built profile sets (no simulation)."""

import pytest

from repro.analysis.report import campaign_report
from repro.core.faultload import WEEK, FaultLoad
from repro.core.model import ProfileSet
from repro.core.sensitivity import crossover_multiplier
from repro.core.stages import SevenStageProfile, Stage
from repro.experiments import performability
from repro.experiments.performability import (
    CROSSOVER_KINDS,
    crossover_bands,
    run_crossover,
)
from repro.experiments.repeaters import ci_half_width, sample_stats


def app_crash_set(version, tn, outage):
    """One application-crash profile: ``outage`` seconds at zero
    throughput.  VIA's higher Tn against TCP's 50 s outage puts the
    crossover at a few x for VIA outages of ~10 s; at 200 s VIA already
    loses at parity."""
    ps = ProfileSet(version, tn)
    ps.add(
        SevenStageProfile.from_pairs(
            "application-crash", version, tn, [(Stage.A, outage, 0.0)]
        )
    )
    return ps


def tcp(outage=50.0):
    return app_crash_set("TCP-PRESS", 1000.0, outage)


def via(outage):
    return app_crash_set("VIA-PRESS-5", 1400.0, outage)


CAMPAIGN = {"TCP-PRESS": tcp(), "VIA-PRESS-5": via(10.0)}


def replicates(via_outages):
    return {
        "TCP-PRESS": [tcp(50.0 + i) for i in range(len(via_outages))],
        "VIA-PRESS-5": [via(o) for o in via_outages],
    }


def direct_crossover(tcp_set, via_set):
    base = FaultLoad(
        components=tuple(
            c for c in FaultLoad.table3(app_fault_mttf=WEEK)
            if c.key == "application-crash"
        )
    )
    return crossover_multiplier(
        tcp_set, via_set, base, lambda m: base.scaled(m, CROSSOVER_KINDS)
    )


def test_value_is_run_crossovers_point(monkeypatch):
    monkeypatch.setattr(performability, "full_campaign", lambda s: CAMPAIGN)
    band = crossover_bands(CAMPAIGN, replicates([8.0, 12.0]))["VIA-PRESS-5"]
    assert band.metric == "crossover"
    assert band.value == run_crossover()["VIA-PRESS-5"]
    assert band.value == direct_crossover(tcp(), via(10.0))
    assert 1.0 < band.value < 64.0


def test_band_is_student_t_over_per_replicate_crossovers():
    reps = replicates([8.0, 10.0, 15.0])
    band = crossover_bands(CAMPAIGN, reps, confidence=0.9)["VIA-PRESS-5"]
    xs = [
        direct_crossover(t, v)
        for t, v in zip(reps["TCP-PRESS"], reps["VIA-PRESS-5"])
    ]
    assert len(set(xs)) == 3
    assert band.n == 3
    assert band.mean == pytest.approx(sample_stats(xs)[0], rel=1e-12)
    assert band.half_width == pytest.approx(ci_half_width(xs, 0.9), rel=1e-12)
    assert band.half_width > 0
    assert band.confidence == 0.9


def test_fewer_than_two_replicates_print_no_band():
    reps = replicates([8.0])
    assert crossover_bands(CAMPAIGN, reps)["VIA-PRESS-5"].n == 1
    out = campaign_report(CAMPAIGN, replicates=reps)
    assert "§9 crossover" in out
    (row,) = [line for line in out.splitlines() if "replicate pair" in line]
    assert row.startswith("  VIA-PRESS-5")
    assert "±" not in row
    assert "(1 of 1 replicate pair(s)" in row


def test_a_replicate_without_crossover_is_left_out_of_the_band():
    reps = replicates([8.0, 200.0, 15.0])
    with pytest.raises(ValueError):
        direct_crossover(reps["TCP-PRESS"][1], reps["VIA-PRESS-5"][1])
    band = crossover_bands(CAMPAIGN, reps)["VIA-PRESS-5"]
    kept = [0, 2]
    xs = [
        direct_crossover(reps["TCP-PRESS"][i], reps["VIA-PRESS-5"][i])
        for i in kept
    ]
    assert band.n == 2
    assert band.mean == pytest.approx(sample_stats(xs)[0], rel=1e-12)
    out = campaign_report(CAMPAIGN, replicates=reps)
    assert f"±{band.half_width:.2f}" in out
    assert "(2 of 3 replicate pair(s) cross in [1, 64]x)" in out


def test_a_merged_campaign_without_crossover_does_not_crash_the_report():
    campaign = {"TCP-PRESS": tcp(), "VIA-PRESS-5": via(200.0)}
    with pytest.raises(ValueError):
        crossover_bands(campaign, {})
    out = campaign_report(campaign)
    assert "no crossover in the merged campaign: VIA already loses" in out


def test_report_has_no_crossover_block_without_both_transports():
    assert "§9 crossover" not in campaign_report({"TCP-PRESS": tcp()})
    assert "§9 crossover" not in campaign_report({"VIA-PRESS-5": via(10.0)})
