"""EventBus semantics: ordering, the zero-subscriber fast path, and
subscriber exception isolation."""

import pytest

from repro.obs.bus import EventBus, EventRecorder, SimEvent
from repro.sim.engine import Engine


def _bus():
    engine = Engine()
    return engine, EventBus(engine)


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
def test_delivery_order_matches_engine_timer_order():
    """Publishes fired from timers arrive in the engine's deterministic
    timer order (time, then schedule sequence), stamped with sim time."""
    engine, bus = _bus()
    rec = EventRecorder().attach(bus)

    # Scheduled out of order on purpose; same-time timers keep FIFO.
    engine.call_at(3.0, lambda: bus.publish("c"))
    engine.call_at(1.0, lambda: bus.publish("a1"))
    engine.call_at(1.0, lambda: bus.publish("a2"))
    engine.call_at(2.0, lambda: bus.publish("b"))
    engine.run(until=10.0)

    assert [e.name for e in rec.events] == ["a1", "a2", "b", "c"]
    assert [e.time for e in rec.events] == [1.0, 1.0, 2.0, 3.0]
    seqs = [e.seq for e in rec.events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_events_are_stamped_with_current_sim_time():
    engine, bus = _bus()
    rec = EventRecorder().attach(bus)
    engine.call_at(4.25, lambda: bus.publish("tick", node="n0", detail="x"))
    engine.run(until=5.0)
    (event,) = rec.events
    assert event.time == 4.25
    assert event.node == "n0"
    assert event.fields == {"detail": "x"}


# ----------------------------------------------------------------------
# Zero-subscriber fast path
# ----------------------------------------------------------------------
def test_publish_without_subscribers_builds_no_event():
    _engine, bus = _bus()
    assert bus.publish("net.frame.drop", node="n0", reason="x") is None
    assert bus.published == 0
    assert not bus.active


def test_publish_with_unrelated_name_subscriber_stays_fast():
    """A per-name subscriber keeps every *other* name on the fast path."""
    _engine, bus = _bus()
    seen = []
    bus.subscribe(seen.append, names=["sim.annotation"])
    assert bus.publish("press.cache.hit", file="f1") is None
    assert bus.published == 0
    event = bus.publish("sim.annotation", label="mark")
    assert isinstance(event, SimEvent)
    assert bus.published == 1
    assert [e.name for e in seen] == ["sim.annotation"]


def test_catch_all_subscriber_receives_everything():
    _engine, bus = _bus()
    rec = EventRecorder().attach(bus)
    bus.publish("a")
    bus.publish("b", node="n1")
    assert rec.counts == {"a": 1, "b": 1}
    assert rec.total == 2
    assert bus.active


def test_unsubscribe_restores_fast_path():
    _engine, bus = _bus()
    seen = []
    fn = bus.subscribe(seen.append, names=["only.this"])
    bus.unsubscribe(fn)
    assert not bus.active
    assert bus.publish("only.this") is None
    assert seen == []


def test_unsubscribe_during_dispatch_skips_no_catch_all_subscriber():
    """A catch-all subscriber that unsubscribes itself mid-dispatch must
    not make the next catch-all subscriber miss that event."""
    _engine, bus = _bus()
    seen = []

    def once(_event):
        bus.unsubscribe(once)

    bus.subscribe(once)
    bus.subscribe(seen.append)
    first = bus.publish("a")
    second = bus.publish("b")
    assert seen == [first, second]


def test_unsubscribe_during_dispatch_skips_no_named_subscriber():
    _engine, bus = _bus()
    seen = []

    def once(_event):
        bus.unsubscribe(once)

    bus.subscribe(once, names=["n"])
    bus.subscribe(seen.append, names=["n"])
    first = bus.publish("n")
    second = bus.publish("n")
    assert seen == [first, second]
    assert bus.publish("other") is None


def test_subscribe_during_dispatch_takes_effect_from_the_next_publish():
    _engine, bus = _bus()
    late = []

    def adder(_event):
        if not late:
            bus.subscribe(late.append)

    bus.subscribe(adder)
    bus.publish("a")
    assert late == []
    second = bus.publish("b")
    assert late[0] is second


def test_unsubscribe_removes_one_registration_at_a_time():
    _engine, bus = _bus()
    seen = []
    bus.subscribe(seen.append)
    bus.subscribe(seen.append)
    bus.unsubscribe(seen.append)
    bus.publish("x")
    assert len(seen) == 1


# ----------------------------------------------------------------------
# Exception isolation
# ----------------------------------------------------------------------
def test_subscriber_exception_is_isolated_and_counted():
    _engine, bus = _bus()
    good = []

    def bad(_event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(bad)
    bus.subscribe(good.append)
    event = bus.publish("x")
    assert event is not None
    assert good == [event]
    assert bus.subscriber_errors == 1

    bus.publish("y")
    assert bus.subscriber_errors == 2
    assert len(good) == 2


def test_named_subscriber_exception_is_isolated_too():
    _engine, bus = _bus()
    seen = []

    def bad(_event):
        raise ValueError("boom")

    bus.subscribe(bad, names=["n"])
    bus.subscribe(seen.append, names=["n"])
    bus.publish("n")
    assert bus.subscriber_errors == 1
    assert len(seen) == 1


# ----------------------------------------------------------------------
# SimEvent round-trip
# ----------------------------------------------------------------------
def test_simevent_dict_round_trip():
    e = SimEvent(time=1.5, seq=7, name="press.cache.hit", node="n2",
                 fields={"file": "f9"})
    assert SimEvent.from_dict(e.to_dict()) == e


def test_simevent_dict_omits_empty_node_and_fields():
    e = SimEvent(time=0.0, seq=1, name="a")
    d = e.to_dict()
    assert "node" not in d and "fields" not in d
    assert SimEvent.from_dict(d) == e


def test_recorder_without_event_storage_counts_only():
    _engine, bus = _bus()
    rec = EventRecorder(keep_events=False).attach(bus)
    bus.publish("a")
    bus.publish("a")
    assert rec.counts == {"a": 2}
    assert rec.events == []
    assert rec.total == 2


def test_simevent_is_read_only_and_defaults_fresh_fields():
    e = SimEvent(0.5, 3, "a")
    with pytest.raises(AttributeError):
        e.time = 1.0
    assert e.node == "" and e.fields == {}
    assert SimEvent(0.5, 3, "a").fields is not e.fields


def test_published_event_equals_one_built_by_keyword():
    engine, bus = _bus()
    seen = []
    bus.subscribe(seen.append)
    engine.call_at(2.0, lambda: bus.publish("tick", node="n1", k=1))
    engine.run(until=3.0)
    assert seen == [SimEvent(time=2.0, seq=1, name="tick", node="n1",
                             fields={"k": 1})]
    assert type(seen[0]) is SimEvent
