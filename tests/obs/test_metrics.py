"""MetricsRegistry: get-or-create identity, rendering, summaries, and the
bound_counter bridge components use."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bound_counter,
)
from repro.sim.engine import Engine


def test_counter_get_or_create_is_identity_per_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("press.cache.hits", node="n0")
    b = reg.counter("press.cache.hits", node="n0")
    c = reg.counter("press.cache.hits", node="n1")
    assert a is b
    assert a is not c
    a.inc(3)
    assert reg.counter("press.cache.hits", node="n0").value == 3


def test_label_order_does_not_matter():
    reg = MetricsRegistry()
    a = reg.counter("m", node="n0", peer="n1")
    b = reg.counter("m", peer="n1", node="n0")
    assert a is b


def test_summary_renders_labels_and_omits_zeros():
    reg = MetricsRegistry()
    reg.counter("net.nic.frames_sent", node="n0").inc(5)
    reg.counter("net.nic.frames_sent", node="n1")  # stays zero
    reg.gauge("press.membership.members").set(4)
    reg.histogram("workload.client.latency", client="c0").observe(0.02)
    s = reg.summary()
    assert s["counters"] == {"net.nic.frames_sent{node=n0}": 5}
    assert s["gauges"] == {"press.membership.members": 4}
    assert list(s["histograms"]) == ["workload.client.latency{client=c0}"]
    full = reg.summary(include_zero=True)
    assert "net.nic.frames_sent{node=n1}" in full["counters"]


def test_gauge_moves_both_ways():
    g = Gauge("depth")
    g.inc()
    g.inc(2)
    g.dec()
    assert g.value == 2
    g.set(9.5)
    assert g.value == 9.5


def test_histogram_buckets_and_stats():
    h = Histogram("lat", bounds=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 4
    assert h.buckets == [1, 1, 1, 1]  # one overflow
    assert h.sum == pytest.approx(5.555)
    assert h.mean == pytest.approx(5.555 / 4)
    assert h.min == 0.005 and h.max == 5.0
    d = h.to_dict()
    assert d["count"] == 4 and d["buckets"] == [1, 1, 1, 1]


def _loop_bucket(bounds, value):
    """The bucket the first-fit scan over inclusive upper edges picks."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


@pytest.mark.parametrize(
    "value",
    [-1.0, 0.0, 0.0005, 0.001, 0.003, 0.005, 0.0050001, 0.1, 1.0, 5.0,
     5.0000001, 99.0, float("inf"), float("-inf")],
)
def test_histogram_bucket_matches_first_fit_scan(value):
    h = Histogram("lat")
    h.observe(value)
    expected = [0] * (len(h.bounds) + 1)
    expected[_loop_bucket(h.bounds, value)] += 1
    assert h.buckets == expected


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8, unique=True),
    st.lists(st.floats(-20.0, 20.0), max_size=40),
)
def test_histogram_bucket_parity_on_random_bounds(bounds, values):
    bounds = sorted(bounds)
    # Probe every bound exactly, plus a spread of values around them.
    values = values + bounds
    h = Histogram("x", bounds=bounds)
    expected = [0] * (len(bounds) + 1)
    for v in values:
        h.observe(v)
        expected[_loop_bucket(bounds, v)] += 1
    assert h.buckets == expected


def test_histogram_rejects_unordered_bounds():
    with pytest.raises(ValueError):
        Histogram("x", bounds=(1.0, 0.5))


def test_bound_counter_uses_engine_registry_when_attached():
    engine = Engine()
    c = bound_counter(engine, "osim.node.crashes", node="n0")
    c.inc()
    assert engine.bus.metrics.counter("osim.node.crashes", node="n0") is c
    assert engine.bus.metrics.summary()["counters"] == {
        "osim.node.crashes{node=n0}": 1
    }


def test_counter_supports_index_protocol():
    c = Counter("n")
    c.inc(7)
    assert int(c) == 7
    assert list(range(10))[c] == 7
