"""Tests for Resource and Store."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource, ResourceClosed, Store


class TestResource:
    def test_grant_within_capacity_is_immediate(self):
        e = Engine()
        r = Resource(e, capacity=2)
        assert r.acquire().triggered
        assert r.acquire().triggered
        assert r.available == 0

    def test_overflow_queues_fifo(self):
        e = Engine()
        r = Resource(e, capacity=1)
        r.acquire()
        order = []
        for name in ("a", "b"):
            r.acquire().add_callback(lambda ev, n=name: order.append(n))
        r.release()
        assert order == ["a"]
        r.release()
        assert order == ["a", "b"]

    def test_release_without_acquire_raises(self):
        e = Engine()
        r = Resource(e, capacity=1)
        with pytest.raises(SimulationError):
            r.release()

    def test_try_acquire(self):
        e = Engine()
        r = Resource(e, capacity=1)
        assert r.try_acquire()
        assert not r.try_acquire()
        r.release()
        assert r.try_acquire()

    def test_handoff_keeps_in_use_flat(self):
        e = Engine()
        r = Resource(e, capacity=1)
        r.acquire()
        r.acquire()  # queued
        r.release()  # handed to waiter
        assert r.in_use == 1

    def test_close_fails_waiters(self):
        e = Engine()
        r = Resource(e, capacity=1)
        r.acquire()
        waiter = r.acquire()
        failures = []
        waiter.add_callback(lambda ev: failures.append(ev.ok))
        r.close()
        assert failures == [False]
        assert isinstance(waiter.value, ResourceClosed)

    def test_capacity_must_be_positive(self):
        e = Engine()
        with pytest.raises(SimulationError):
            Resource(e, capacity=0)

    def test_queued_count(self):
        e = Engine()
        r = Resource(e, capacity=1)
        r.acquire()
        r.acquire()
        r.acquire()
        assert r.queued == 2


class TestStore:
    def test_put_then_get(self):
        e = Engine()
        s = Store(e)
        s.put("x")
        got = s.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self):
        e = Engine()
        s = Store(e)
        got = s.get()
        assert not got.triggered
        s.put("y")
        assert got.value == "y"

    def test_fifo_ordering(self):
        e = Engine()
        s = Store(e)
        for i in range(5):
            s.put(i)
        assert [s.get().value for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_bound_drops(self):
        e = Engine()
        s = Store(e, capacity=2)
        assert s.put(1)
        assert s.put(2)
        assert not s.put(3)
        assert len(s) == 2

    def test_try_get_empty_returns_none(self):
        e = Engine()
        s = Store(e)
        assert s.try_get() is None

    def test_drain_empties(self):
        e = Engine()
        s = Store(e)
        s.put(1)
        s.put(2)
        assert s.drain() == [1, 2]
        assert len(s) == 0

    def test_close_fails_getters_and_rejects_puts(self):
        e = Engine()
        s = Store(e)
        getter = s.get()
        s.close()
        assert getter.triggered and not getter.ok
        assert not s.put("z")
