"""Unit tests for experiment-harness objects (no simulation needed)."""

import dataclasses

import pytest

from repro.core.extract import ExperimentRecord
from repro.core.stages import SevenStageProfile, Stage, average_profiles
from repro.experiments.settings import (
    CAMPAIGN_FAULTS,
    DEFAULT_SETTINGS,
    DURATION_FAULTS,
    FAULT_MTTR,
    Phase1Settings,
)
from repro.experiments.table1 import Table1Row, format_table1
from repro.experiments.timelines import TimelineFigure
from repro.faults.spec import FaultKind
from repro.sim.monitor import Timeline


class TestSettings:
    def test_campaign_covers_all_of_table2(self):
        assert set(CAMPAIGN_FAULTS) == set(FaultKind)

    def test_every_fault_has_an_mttr(self):
        assert set(FAULT_MTTR) == set(FaultKind)

    def test_duration_faults_are_the_extended_ones(self):
        assert FaultKind.APP_CRASH not in DURATION_FAULTS
        assert FaultKind.BAD_PARAM_NULL not in DURATION_FAULTS
        assert FaultKind.LINK_DOWN in DURATION_FAULTS
        assert FaultKind.APP_HANG in DURATION_FAULTS

    def test_cache_key_distinguishes_settings(self):
        """Cells are cached under ``sim_key()``: the simulation inputs
        change it, the replication layout does not."""
        a = DEFAULT_SETTINGS.sim_key()
        b = dataclasses.replace(DEFAULT_SETTINGS, seed=99).sim_key()
        c = dataclasses.replace(
            DEFAULT_SETTINGS, replications=1, max_replications=5
        ).sim_key()
        assert a != b
        assert a == c

    def test_cache_key_is_hashable(self):
        hash(DEFAULT_SETTINGS.sim_key())


class TestTable1Formatting:
    def test_ratios_relative_to_first_row(self):
        rows = [
            Table1Row("TCP-PRESS", measured=5000.0, paper=4965.0),
            Table1Row("VIA-PRESS-5", measured=7000.0, paper=7058.0),
        ]
        out = format_table1(rows)
        assert "1.40" in out  # 7000/5000
        assert "1.42" in out  # 7058/4965


class TestTimelineFigure:
    def _record(self):
        tl = Timeline(
            version="V",
            fault="f",
            bucket_width=1.0,
            series=[(float(t), 100.0 if t < 50 else 0.0) for t in range(100)],
        )
        return ExperimentRecord(
            version="V",
            fault="f",
            timeline=tl,
            normal_throughput=100.0,
            injected_at=50.0,
            cleared_at=80.0,
            end_time=100.0,
        )

    def test_series_coarsens_buckets(self):
        fig = TimelineFigure(fault=FaultKind.LINK_DOWN)
        fig.records["V"] = self._record()
        pts = fig.series("V", bucket=25.0)
        assert len(pts) == 4
        assert pts[0][1] == pytest.approx(100.0)
        assert pts[3][1] == pytest.approx(0.0)


class TestProfileAveraging:
    def test_average_of_identical_is_identity(self):
        p = SevenStageProfile.from_pairs(
            "f", "v", 100.0, [(Stage.A, 10.0, 50.0)]
        )
        avg = average_profiles([p, p, p])
        assert avg.duration(Stage.A) == pytest.approx(10.0)
        assert avg.throughput(Stage.A) == pytest.approx(50.0)

    def test_duration_weighted_throughput(self):
        a = SevenStageProfile.from_pairs("f", "v", 100.0, [(Stage.A, 10.0, 0.0)])
        b = SevenStageProfile.from_pairs("f", "v", 100.0, [(Stage.A, 30.0, 80.0)])
        avg = average_profiles([a, b])
        assert avg.duration(Stage.A) == pytest.approx(20.0)
        assert avg.throughput(Stage.A) == pytest.approx(60.0)  # 2400/40

    def test_no_impact_replication_dilutes_duration(self):
        hit = SevenStageProfile.from_pairs("f", "v", 100.0, [(Stage.A, 30.0, 10.0)])
        miss = SevenStageProfile.no_impact("f", "v", 100.0)
        avg = average_profiles([hit, miss])
        assert avg.duration(Stage.A) == pytest.approx(15.0)
        assert avg.throughput(Stage.A) == pytest.approx(10.0)

    def test_mismatched_experiments_rejected(self):
        a = SevenStageProfile.no_impact("f1", "v", 100.0)
        b = SevenStageProfile.no_impact("f2", "v", 100.0)
        with pytest.raises(ValueError):
            average_profiles([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_profiles([])

    def test_throughput_clamped_at_mean_tn(self):
        a = SevenStageProfile.from_pairs("f", "v", 90.0, [(Stage.A, 10.0, 90.0)])
        b = SevenStageProfile.from_pairs("f", "v", 110.0, [(Stage.A, 10.0, 110.0)])
        avg = average_profiles([a, b])
        assert avg.throughput(Stage.A) <= avg.normal_throughput
