"""Tests for Resource."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.resources import Resource


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

    def test_handoff_keeps_in_use_flat(self):
        e = Engine()
        r = Resource(e, capacity=1)
        r.acquire()
        r.acquire()  # queued
        r.release()  # handed to waiter
        assert r.in_use == 1

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
