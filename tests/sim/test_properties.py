"""Property-based tests for the simulation core (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import Resource, Store


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_events_always_execute_in_nondecreasing_time(delays):
    e = Engine()
    times = []
    for d in delays:
        e.call_after(d, lambda: times.append(e.now))
    e.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_cancelled_timers_never_fire(items):
    e = Engine()
    fired = []
    timers = []
    for i, (delay, cancel) in enumerate(items):
        timers.append((e.call_after(delay, lambda i=i: fired.append(i)), cancel))
    for timer, cancel in timers:
        if cancel:
            timer.cancel()
    e.run()
    expected = {i for i, (_d, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=60))
def test_resource_never_exceeds_capacity(capacity, n_requests):
    e = Engine()
    r = Resource(e, capacity=capacity)
    in_flight = {"n": 0, "max": 0}

    def hold(_ev):
        in_flight["n"] += 1
        in_flight["max"] = max(in_flight["max"], in_flight["n"])
        e.call_after(1.0, release)

    def release():
        in_flight["n"] -= 1
        r.release()

    for i in range(n_requests):
        e.call_after(i * 0.1, lambda: r.acquire().add_callback(hold))
    e.run()
    assert in_flight["max"] <= capacity
    assert in_flight["n"] == 0
    assert r.in_use == 0


@given(st.lists(st.integers(), max_size=50))
def test_store_preserves_fifo_order(items):
    e = Engine()
    s = Store(e)
    for item in items:
        s.put(item)
    out = [s.get().value for _ in range(len(items))]
    assert out == items


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32), st.text(min_size=0, max_size=20))
def test_rng_streams_deterministic(seed, name):
    from repro.sim.rng import RngRegistry

    a = RngRegistry(seed).stream(name)
    b = RngRegistry(seed).stream(name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
