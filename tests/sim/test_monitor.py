"""Tests for throughput monitors, annotations, and timelines."""

import pytest

from repro.sim.engine import Engine
from repro.sim.monitor import Annotations, ThroughputMonitor, Timeline


class TestThroughputMonitor:
    def test_counts_land_in_right_bucket(self):
        e = Engine()
        m = ThroughputMonitor(e, bucket_width=1.0)
        e.call_at(0.5, m.success)
        e.call_at(2.5, m.success)
        e.call_at(2.7, m.success)
        e.run()
        series = dict(m.series(0, 3))
        assert series[0.0] == 1.0
        assert series[1.0] == 0.0
        assert series[2.0] == 2.0

    def test_zero_buckets_explicit(self):
        e = Engine()
        m = ThroughputMonitor(e, bucket_width=1.0)
        e.call_at(4.2, m.success)
        e.run()
        series = m.series(0, 5)
        assert len(series) == 5
        assert [r for _t, r in series] == [0, 0, 0, 0, 1]

    def test_availability(self):
        e = Engine()
        m = ThroughputMonitor(e)
        for _ in range(9):
            m.success()
        m.failure()
        assert m.availability() == pytest.approx(0.9)

    def test_availability_no_requests_is_one(self):
        e = Engine()
        m = ThroughputMonitor(e)
        assert m.availability() == 1.0

    def test_mean_rate(self):
        e = Engine()
        m = ThroughputMonitor(e, bucket_width=1.0)
        e.call_at(0.5, m.success, 4)
        e.call_at(1.5, m.success, 2)
        e.run(until=10)
        assert m.mean_rate(0, 2) == pytest.approx(3.0)
        assert m.mean_rate(0, 1) == pytest.approx(4.0)

    def test_mean_rate_empty_window(self):
        e = Engine()
        m = ThroughputMonitor(e)
        assert m.mean_rate(5, 5) == 0.0

    def test_bucket_width_validation(self):
        e = Engine()
        with pytest.raises(ValueError):
            ThroughputMonitor(e, bucket_width=0)

    def test_failure_series(self):
        e = Engine()
        m = ThroughputMonitor(e, bucket_width=2.0)
        e.call_at(1.0, m.failure)
        e.call_at(1.5, m.failure)
        e.run(until=4)
        fs = dict(m.failure_series(0, 4))
        assert fs[0.0] == pytest.approx(1.0)  # 2 failures / 2s bucket


class TestAnnotations:
    def test_mark_records_time_and_label(self):
        e = Engine()
        a = Annotations(e)
        e.call_at(3.0, a.mark, "fault-injected", "link")
        e.run()
        entry = a.first("fault-injected")
        assert entry.time == 3.0
        assert entry.detail == "link"

    def test_first_and_last(self):
        e = Engine()
        a = Annotations(e)
        e.call_at(1.0, a.mark, "x")
        e.call_at(2.0, a.mark, "x")
        e.run()
        assert a.first("x").time == 1.0
        assert a.last("x").time == 2.0

    def test_missing_label_returns_none(self):
        e = Engine()
        a = Annotations(e)
        assert a.first("nothing") is None
        assert a.last("nothing") is None

    def test_times_filters_by_label(self):
        e = Engine()
        a = Annotations(e)
        e.call_at(1.0, a.mark, "a")
        e.call_at(2.0, a.mark, "b")
        e.call_at(3.0, a.mark, "a")
        e.run()
        assert a.times("a") == [1.0, 3.0]

    def test_len_and_iter(self):
        e = Engine()
        a = Annotations(e)
        a.mark("one")
        a.mark("two")
        assert len(a) == 2
        assert [x.label for x in a] == ["one", "two"]


class TestTimeline:
    def _tl(self):
        return Timeline(
            version="V",
            fault="f",
            bucket_width=1.0,
            series=[(0.0, 10.0), (1.0, 20.0), (2.0, 0.0), (3.0, 30.0)],
        )

    def test_mean_rate_over_window(self):
        tl = self._tl()
        assert tl.mean_rate(0, 2) == pytest.approx(15.0)
        assert tl.mean_rate(0, 4) == pytest.approx(15.0)

    def test_mean_rate_outside_series(self):
        tl = self._tl()
        assert tl.mean_rate(10, 20) == 0.0
