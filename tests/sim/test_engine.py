"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import Engine, Event, SimulationError, StopSimulation


class TestScheduling:
    def test_call_after_runs_at_right_time(self):
        e = Engine()
        seen = []
        e.call_after(5.0, lambda: seen.append(e.now))
        e.run()
        assert seen == [5.0]

    def test_call_at_absolute_time(self):
        e = Engine()
        seen = []
        e.call_at(3.5, lambda: seen.append(e.now))
        e.run()
        assert seen == [3.5]

    def test_events_run_in_time_order(self):
        e = Engine()
        seen = []
        e.call_after(3.0, lambda: seen.append(3))
        e.call_after(1.0, lambda: seen.append(1))
        e.call_after(2.0, lambda: seen.append(2))
        e.run()
        assert seen == [1, 2, 3]

    def test_same_time_fifo_order(self):
        e = Engine()
        seen = []
        for i in range(10):
            e.call_after(1.0, lambda i=i: seen.append(i))
        e.run()
        assert seen == list(range(10))

    def test_callback_args_passed(self):
        e = Engine()
        seen = []
        e.call_after(1.0, seen.append, 42)
        e.run()
        assert seen == [42]

    def test_call_soon_runs_at_current_time(self):
        e = Engine()
        seen = []

        def outer():
            e.call_soon(lambda: seen.append(e.now))

        e.call_after(2.0, outer)
        e.run()
        assert seen == [2.0]

    def test_scheduling_in_past_rejected(self):
        e = Engine()
        e.call_after(5.0, lambda: None)
        e.run()
        with pytest.raises(SimulationError):
            e.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        e = Engine()
        with pytest.raises(SimulationError):
            e.call_after(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        e = Engine()
        with pytest.raises(SimulationError):
            e.call_at(float("nan"), lambda: None)


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        e = Engine()
        e.call_after(10.0, lambda: None)
        e.run(until=5.0)
        assert e.now == 5.0
        assert e.pending == 1

    def test_run_until_resumes_where_left(self):
        e = Engine()
        seen = []
        e.call_after(10.0, lambda: seen.append(e.now))
        e.run(until=5.0)
        e.run(until=20.0)
        assert seen == [10.0]
        assert e.now == 20.0

    def test_run_without_bound_drains_heap(self):
        e = Engine()
        for i in range(5):
            e.call_after(float(i + 1), lambda: None)
        e.run()
        assert e.pending == 0
        assert e.now == 5.0

    def test_step_executes_single_event(self):
        e = Engine()
        seen = []
        e.call_after(1.0, lambda: seen.append("a"))
        e.call_after(2.0, lambda: seen.append("b"))
        assert e.step()
        assert seen == ["a"]
        assert e.step()
        assert not e.step()

    def test_stop_simulation_halts_run(self):
        e = Engine()
        seen = []

        def stopper():
            raise StopSimulation

        e.call_after(1.0, seen.append, 1)
        e.call_after(2.0, stopper)
        e.call_after(3.0, seen.append, 3)
        e.run()
        assert seen == [1]
        assert e.now == 2.0

    def test_engine_not_reentrant(self):
        e = Engine()

        def nested():
            e.run()

        e.call_after(1.0, nested)
        with pytest.raises(SimulationError):
            e.run()

    def test_events_processed_counter(self):
        e = Engine()
        for i in range(7):
            e.call_after(1.0, lambda: None)
        e.run()
        assert e.events_processed == 7


class TestTimers:
    def test_cancel_prevents_execution(self):
        e = Engine()
        seen = []
        t = e.call_after(1.0, lambda: seen.append(1))
        t.cancel()
        e.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        e = Engine()
        t = e.call_after(1.0, lambda: None)
        t.cancel()
        t.cancel()
        e.run()

    def test_active_reflects_lifecycle(self):
        e = Engine()
        t = e.call_after(1.0, lambda: None)
        assert t.active
        e.run()
        assert not t.active  # fired

    def test_cancelled_timer_not_active(self):
        e = Engine()
        t = e.call_after(1.0, lambda: None)
        t.cancel()
        assert not t.active

    def test_peek_skips_cancelled(self):
        e = Engine()
        t1 = e.call_after(1.0, lambda: None)
        e.call_after(2.0, lambda: None)
        t1.cancel()
        assert e.peek() == 2.0

    def test_peek_empty_heap_is_inf(self):
        e = Engine()
        assert e.peek() == math.inf

    def test_pending_excludes_cancelled(self):
        e = Engine()
        t1 = e.call_after(1.0, lambda: None)
        e.call_after(2.0, lambda: None)
        t1.cancel()
        assert e.pending == 1


class TestEvent:
    def test_succeed_delivers_value(self):
        e = Engine()
        ev = e.event()
        seen = []
        ev.add_callback(lambda event: seen.append(event.value))
        ev.succeed(99)
        assert seen == [99]

    def test_callback_after_trigger_fires_immediately(self):
        e = Engine()
        ev = e.event()
        ev.succeed("x")
        seen = []
        ev.add_callback(lambda event: seen.append(event.value))
        assert seen == ["x"]

    def test_fail_carries_exception(self):
        e = Engine()
        ev = e.event()
        ev.fail(ValueError("boom"))
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, ValueError)

    def test_double_trigger_rejected(self):
        e = Engine()
        ev = e.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        e = Engine()
        ev = e.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")


class TestHotLoopInternals:
    """White-box checks of the hot-loop machinery: the timer freelist,
    the head slot, and incremental tombstone compaction."""

    def test_timer_objects_are_recycled(self):
        e = Engine()
        fired = []
        t1 = e.call_after(0.1, lambda: fired.append(1))
        e.run()
        t2 = e.call_after(0.1, lambda: fired.append(2))
        assert t2 is t1  # fired timers return through the freelist
        e.run()
        assert fired == [1, 2]

    def test_cancelled_timers_are_recycled(self):
        e = Engine()
        t1 = e.call_after(1.0, lambda: None)
        t1.cancel()
        e.run()  # compaction reclaims the tombstone
        t2 = e.call_after(1.0, lambda: None)
        assert t2 is t1

    def test_ordering_with_head_slot_backfill(self):
        """A later schedule that precedes the cached next event must run
        first (the head slot only ever holds the globally earliest entry)."""
        e = Engine()
        order = []
        e.call_after(2.0, lambda: order.append("late"))
        e.call_after(1.0, lambda: order.append("early"))
        e.call_after(0.5, lambda: order.append("earliest"))
        e.run()
        assert order == ["earliest", "early", "late"]

    def test_mass_cancellation_keeps_heap_bounded(self):
        e = Engine()
        keeper = []
        for _ in range(50):
            timers = [e.call_after(10.0, lambda: None) for _ in range(200)]
            for t in timers:
                t.cancel()
            keeper.append(e.call_after(5.0, lambda: None))
        # Incremental compaction runs at cancel time: tombstones cannot
        # accumulate past the live population by more than a constant
        # factor.
        assert len(e._heap) < 2_000
        assert e.pending == 50

    def test_pending_is_exact_after_mixed_fire_and_cancel(self):
        e = Engine()
        fired = []
        live = [e.call_after(float(i + 1), lambda: fired.append(1)) for i in range(10)]
        for t in live[::3]:
            t.cancel()
        e.run(until=5.0)
        expected = sum(
            1
            for i, t in enumerate(live)
            if i % 3 != 0 and float(i + 1) > 5.0
        )
        assert e.pending == expected

    def test_events_processed_excludes_cancelled(self):
        e = Engine()
        t1 = e.call_after(1.0, lambda: None)
        e.call_after(2.0, lambda: None)
        t1.cancel()
        e.run()
        assert e.events_processed == 1
