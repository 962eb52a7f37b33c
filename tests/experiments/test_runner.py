"""Determinism, parallel-parity, and resumability of the campaign runner.

The contract under test: a campaign is a pure function of its settings.
Serial execution, a process pool, and a warm result store must all
produce the same ProfileSets — and the warm store must do it with zero
simulation runs.
"""

import dataclasses
import gc
import json

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import CampaignRunner, run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import DiskStore, MemoryStore
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE
from repro.sim.engine import Engine

#: Small grid: 1 version x 2 faults x 2 reps (+2 baselines) = 6 cells.
SETTINGS = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=11,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=2,
)
VERSIONS = ["TCP-PRESS"]
FAULTS = (FaultKind.APP_CRASH, FaultKind.LINK_DOWN)


def _run(**kwargs):
    kwargs.setdefault("versions", VERSIONS)
    kwargs.setdefault("faults", FAULTS)
    return run_campaign(SETTINGS, **kwargs)


@pytest.fixture(scope="module")
def serial():
    """One serial reference campaign, shared by the parity tests."""
    return _run(jobs=1, store=MemoryStore())


class TestDeterminism:
    def test_serial_repeat_is_bit_identical(self, serial):
        sets, _ = serial
        again, _ = _run(jobs=1, use_cache=False)
        assert again["TCP-PRESS"].to_dict() == sets["TCP-PRESS"].to_dict()

    def test_parallel_equals_serial(self, serial):
        sets, _ = serial
        par, report = _run(jobs=2, use_cache=False)
        assert report.jobs == 2
        assert par["TCP-PRESS"].to_dict() == sets["TCP-PRESS"].to_dict()
        assert sets["TCP-PRESS"].isclose(par["TCP-PRESS"])

    def test_full_campaign_facade_parallel_parity(self, serial):
        from repro.experiments.campaign import full_campaign

        sets, _ = serial
        par = full_campaign(
            SETTINGS,
            versions=VERSIONS,
            faults=FAULTS,
            jobs=2,
            store=MemoryStore(),
        )
        assert sets["TCP-PRESS"].isclose(par["TCP-PRESS"], rel_tol=1e-9)
        assert par["TCP-PRESS"].to_dict() == sets["TCP-PRESS"].to_dict()

    def test_store_round_trip_equals_serial(self, serial, tmp_path):
        """serialize -> load -> compare: the full persistence cycle."""
        sets, _ = serial
        store = DiskStore(tmp_path)
        cold, _ = _run(jobs=1, store=store)
        warm, _ = _run(jobs=1, store=store)
        for profiles in (cold["TCP-PRESS"], warm["TCP-PRESS"]):
            assert profiles.to_dict() == sets["TCP-PRESS"].to_dict()

    def test_profile_set_json_round_trip(self, serial):
        from repro.core.model import ProfileSet

        sets, _ = serial
        ps = sets["TCP-PRESS"]
        again = ProfileSet.from_dict(json.loads(json.dumps(ps.to_dict())))
        assert again.to_dict() == ps.to_dict()
        assert ps.isclose(again, rel_tol=0.0)


class TestStoreResumption:
    def test_warm_store_runs_zero_cells(self, tmp_path):
        store = DiskStore(tmp_path)
        _, cold = _run(store=store)
        assert cold.executed == len(cold.cells)
        _, warm = _run(store=store)
        assert warm.executed == 0
        assert warm.cached == len(cold.cells)

    def test_warm_store_survives_reopen(self, tmp_path):
        _run(store=DiskStore(tmp_path))
        _, warm = _run(store=DiskStore(tmp_path))
        assert warm.executed == 0

    def test_corrupted_cell_is_rerun_not_fatal(self, tmp_path):
        store = DiskStore(tmp_path)
        sets, cold = _run(store=store)
        # Corrupt exactly one cached cell file.
        victim = sorted(tmp_path.rglob("*.json"))[0]
        victim.write_text("truncated {")
        resumed, report = _run(store=DiskStore(tmp_path))
        assert report.executed == 1
        assert report.cached == len(cold.cells) - 1
        assert resumed["TCP-PRESS"].to_dict() == sets["TCP-PRESS"].to_dict()

    def test_cell_without_its_profile_is_rerun_not_dropped(self, tmp_path):
        """A cached fault cell that lost ``profile`` is a miss: the rerun
        executes it, rewrites it and keeps the fault in the merge."""
        settings = dataclasses.replace(SETTINGS, replications=1)
        faults = (FaultKind.LINK_DOWN, FaultKind.NODE_CRASH)
        sets, _ = run_campaign(
            settings, VERSIONS, faults, store=DiskStore(tmp_path)
        )
        (victim,) = [
            tmp_path / digest[:2] / f"{digest}.json"
            for digest, key, _ in DiskStore(tmp_path).iter_cell_files()
            if key["fault"] == FaultKind.NODE_CRASH.value
        ]
        record = json.loads(victim.read_text())
        del record["payload"]["profile"]
        victim.write_text(json.dumps(record))
        resumed, report = run_campaign(
            settings, VERSIONS, faults, store=DiskStore(tmp_path)
        )
        assert (report.executed, report.cached) == (1, 2)
        assert "1 unreadable or malformed cached cell(s) re-run" in (
            report.notices
        )
        assert FaultKind.NODE_CRASH.value in resumed["TCP-PRESS"].keys()
        assert resumed["TCP-PRESS"].to_dict() == sets["TCP-PRESS"].to_dict()
        assert "profile" in json.loads(victim.read_text())["payload"]

    def test_settings_change_misses_the_store(self, tmp_path):
        store = DiskStore(tmp_path)
        _run(store=store)
        changed = dataclasses.replace(SETTINGS, utilization=0.8)
        _, report = run_campaign(
            changed, versions=VERSIONS, faults=FAULTS, store=store
        )
        assert report.executed == len(report.cells)

    def test_use_cache_false_bypasses_the_store(self, tmp_path):
        store = DiskStore(tmp_path)
        _run(store=store)
        _, report = _run(store=store, use_cache=False)
        assert report.executed == len(report.cells)
        # And it did not overwrite/duplicate anything either way.
        _, warm = _run(store=store)
        assert warm.executed == 0


class TestReport:
    def test_cells_cover_the_grid(self):
        _, report = _run(use_cache=False)
        reps = SETTINGS.replications
        assert len(report.cells) == reps * (len(FAULTS) + 1)
        baselines = [c for c in report.cells if c.fault is None]
        assert len(baselines) == reps
        assert report.executed + report.cached == len(report.cells)

    def test_elapsed_and_wall_clock_recorded(self):
        _, report = _run(use_cache=False)
        assert report.wall_clock > 0
        assert report.cell_seconds > 0
        assert all(c.elapsed > 0 for c in report.cells)
        assert report.by_version().keys() == {"TCP-PRESS"}
        assert set(report.by_fault()) == {
            "baseline",
            FaultKind.APP_CRASH.value,
            FaultKind.LINK_DOWN.value,
        }

    def test_cache_hits_report_zero_elapsed(self):
        store = MemoryStore()
        _run(store=store)
        _, warm = _run(store=store)
        assert warm.cell_seconds == 0.0
        assert all(c.cached for c in warm.cells)

    @pytest.mark.parametrize("span_sample", [0, -3])
    def test_rejects_a_non_positive_span_sample(self, span_sample):
        with pytest.raises(ValueError, match="span_sample must be >= 1"):
            CampaignRunner(SETTINGS, span_sample=span_sample)

    def test_timing_report_renders(self):
        from repro.analysis.report import campaign_timing_report

        _, report = _run(use_cache=False)
        text = campaign_timing_report(report)
        assert "cells" in text and "wall-clock" in text
        assert "TCP-PRESS" in text


class TestCellBoundary:
    """Each cell's simulation is freed as the cell returns its payload."""

    def test_a_serial_campaign_leaves_no_engine_behind(self):
        gc.collect()
        alive = {id(o) for o in gc.get_objects() if isinstance(o, Engine)}
        enabled = gc.isenabled()
        gc.disable()
        try:
            _run(jobs=1, faults=FAULTS[:1], use_cache=False)
            left = [
                o
                for o in gc.get_objects()
                if isinstance(o, Engine) and id(o) not in alive
            ]
        finally:
            if enabled:
                gc.enable()
        assert left == []

    def _spy(self, monkeypatch, cell):
        """Plant ``cell`` as the worker; returns the freeze counts it saw."""
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.get_freeze_count())
            return cell(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", spy)
        return seen

    def test_the_freeze_is_undone_when_the_campaign_returns(self, monkeypatch):
        seen = self._spy(monkeypatch, runner_mod._run_cell)
        before = gc.get_freeze_count()
        _run(jobs=1, faults=FAULTS[:1], use_cache=False)
        assert seen and min(seen) > 0
        assert gc.get_freeze_count() == before

    def test_the_freeze_is_undone_when_a_cell_raises(self, monkeypatch):
        def planted(*args, **kwargs):
            raise RuntimeError("planted cell failure")

        seen = self._spy(monkeypatch, planted)
        before = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="planted"):
            _run(jobs=1, faults=FAULTS[:1], use_cache=False)
        assert seen and min(seen) > 0
        assert gc.get_freeze_count() == before


class TestCampaignFacade:
    def test_full_campaign_uses_configured_defaults(self, tmp_path):
        from repro.experiments import campaign as campaign_mod

        store = DiskStore(tmp_path)
        saved = dict(campaign_mod._defaults)
        try:
            campaign_mod.configure(store=store, jobs=1)
            campaign_mod.full_campaign(
                SETTINGS, versions=VERSIONS, faults=FAULTS
            )
            assert len(store) > 0
            _, report = campaign_mod.full_campaign_with_report(
                SETTINGS, versions=VERSIONS, faults=FAULTS
            )
            assert report.executed == 0
        finally:
            campaign_mod._defaults.clear()
            campaign_mod._defaults.update(saved)

    def test_measure_profile_set_matches_runner(self, serial):
        from repro.experiments.campaign import measure_profile_set

        sets, _ = serial
        ps = measure_profile_set(
            "TCP-PRESS", SETTINGS, faults=FAULTS, store=MemoryStore()
        )
        assert ps.to_dict() == sets["TCP-PRESS"].to_dict()


class TestMergeProfiles:
    """The one phase-1 merge the runner and the dashboard share."""

    @staticmethod
    def _profile(fault, tn, duration):
        from repro.core.stages import SevenStageProfile, Stage

        return SevenStageProfile.from_pairs(
            fault, "V", tn, [(Stage.B, duration, tn / 2)]
        ).to_dict()

    def test_averages_in_replication_order_whatever_the_row_order(self):
        from repro.experiments.runner import merge_profiles

        rows = [
            ("V", "f", 2, {"profile": self._profile("f", 100.0, 30.0)}),
            ("V", None, 1, {"tn": 0.3}),
            ("V", "f", 0, {"profile": self._profile("f", 100.0, 10.0)}),
            ("V", None, 2, {"tn": 0.1}),
            ("V", None, 0, {"tn": 0.7}),
            ("V", "f", 1, {"profile": self._profile("f", 100.0, 20.0)}),
        ]
        merged, replicates = merge_profiles(rows)
        in_order = sorted(rows, key=lambda r: r[2])
        expected, _ = merge_profiles(in_order)
        assert merged["V"].to_dict() == expected["V"].to_dict()
        assert merged["V"].normal_throughput == (0.7 + 0.3 + 0.1) / 3
        assert [ps.normal_throughput for ps in replicates["V"]] == [
            0.7, 0.3, 0.1
        ]

    def test_versions_and_faults_keep_first_seen_order(self):
        from repro.experiments.runner import merge_profiles

        rows = [
            ("Z", None, 0, {"tn": 1.0}),
            ("Z", "g", 0, {"profile": self._profile("g", 1.0, 1.0)}),
            ("Z", "a", 0, {"profile": self._profile("a", 1.0, 1.0)}),
            ("A", None, 0, {"tn": 1.0}),
            ("A", "a", 0, {"profile": self._profile("a", 1.0, 1.0)}),
        ]
        merged, _ = merge_profiles(rows)
        assert list(merged) == ["Z", "A"]
        assert list(merged["Z"].keys()) == ["g", "a"]

    def test_tolerates_partial_rows(self):
        """Rows of an interrupted grid: every row counts toward the
        merge, only complete replications become replicates."""
        from repro.experiments.runner import merge_profiles

        rows = [
            ("V", None, 0, {"tn": 2.0}),
            ("V", None, 2, {"tn": 4.0}),
            ("V", "f", 0, {"profile": self._profile("f", 2.0, 5.0)}),
            ("V", "f", 1, {"profile": self._profile("f", 2.0, 5.0)}),
            ("V", "g", 0, {"profile": self._profile("g", 2.0, 5.0)}),
            ("V", "g", 2, {"profile": self._profile("g", 2.0, 5.0)}),
            ("B", None, 0, {"tn": 1.0}),  # no fault profile: dropped
            ("F", "f", 0, {"profile": self._profile("f", 2.0, 5.0)}),
        ]
        merged, replicates = merge_profiles(rows)
        assert list(merged) == ["V"]
        assert merged["V"].normal_throughput == 3.0
        assert sorted(merged["V"].keys()) == ["f", "g"]
        # Rep 1 lacks its baseline and g, rep 2 lacks f: only rep 0 is a
        # complete replicate.
        assert [ps.normal_throughput for ps in replicates["V"]] == [2.0]
        assert sorted(replicates["V"][0].keys()) == ["f", "g"]
