"""The deterministic snapshot/restore subsystem (repro.sim.snapshot).

The contract: a captured simulation, restored, continues **bit
identically** — same event order, same timestamps, same RNG draws, same
component state digests.  These tests exercise the subsystem from the
bare engine up to a full PRESS cluster of every version.
"""

import enum
import gc
import sys
import types

import pytest

from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import ALL_VERSIONS
from repro.sim import engine as engine_module
from repro.sim import snapshot
from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def _tick(e: Engine, log: list, label: str, until: int) -> None:
    """A module-level callback, so a checkpoint pickles it by reference."""
    log.append((label, e.now, len(log)))
    if len(log) < until:
        e.call_after(0.25, _tick, e, log, label, until)


def test_engine_round_trip_continues_identically():
    e = Engine()
    log: list = []
    e.call_after(0.25, _tick, e, log, "a", 40)
    e.run(until=5.0)
    assert log, "warm segment should have fired events"

    blob = snapshot.capture((e, log))
    e2, log2 = snapshot.restore(blob)
    assert e2.now == e.now
    assert e2.events_processed == e.events_processed

    e.run(until=20.0)
    e2.run(until=20.0)
    assert log2 == log
    assert e2.events_processed == e.events_processed
    assert e2.snapshot_state() == e.snapshot_state()


def test_running_engine_refuses_capture():
    e = Engine()
    boom: dict = {}

    def try_capture():
        try:
            snapshot.capture(e)
        except (snapshot.SnapshotError, SimulationError) as exc:
            boom["error"] = exc

    e.call_after(1.0, try_capture)
    e.run()
    assert "error" in boom


def test_generators_are_rejected_loudly():
    gen = (x for x in range(3))
    next(gen)
    with pytest.raises(snapshot.SnapshotError):
        snapshot.capture({"live": gen})


def test_a_closure_fails_capture_with_snapshot_error():
    """Functions pickle by reference only: a local closure in the graph
    fails the capture, as a generator does."""

    def make_counter(start):
        count = [start]

        def bump(n=1):
            count[0] += n
            return count[0]

        return bump

    with pytest.raises(snapshot.SnapshotError, match="cannot capture"):
        snapshot.capture({"callback": make_counter(10)})


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def test_state_digest_tracks_snapshot_state():
    e1, e2 = Engine(), Engine()
    assert snapshot.state_digest(e1) == snapshot.state_digest(e2)
    e1.call_after(1.0, lambda: None)
    e1.run()
    assert snapshot.state_digest(e1) != snapshot.state_digest(e2)


def test_rng_registry_round_trips_through_pickle():
    reg = RngRegistry(42)
    reg.stream("clients").random()
    blob = snapshot.capture(reg)
    reg2 = snapshot.restore(blob)
    assert reg2.snapshot_state() == reg.snapshot_state()
    assert reg2.stream("clients").random() == reg.stream("clients").random()


# ----------------------------------------------------------------------
# Whole clusters, every version
# ----------------------------------------------------------------------


def _cluster(version: str) -> PressCluster:
    c = PressCluster(ALL_VERSIONS[version], scale=SMOKE_SCALE, seed=3)
    c.start()
    c.run_until(20.0)
    return c


@pytest.mark.parametrize("version", sorted(ALL_VERSIONS))
def test_cluster_round_trip_is_bit_identical(version):
    """Capture at t=20, then run the original and the restored copy to
    t=45 and compare everything observable: engine clock/sequence/event
    count, every component's state digest, and the measured timeline."""
    c = _cluster(version)
    blob = snapshot.capture(c)
    c2 = snapshot.restore(blob)
    assert snapshot.state_digest(c2) == snapshot.state_digest(c)

    c.run_until(45.0)
    c2.run_until(45.0)
    assert c2.engine.now == c.engine.now
    assert c2.engine.events_processed == c.engine.events_processed
    assert c2.snapshot_state() == c.snapshot_state()
    assert snapshot.state_digest(c2) == snapshot.state_digest(c)
    assert c2.monitor.series(0.0, 45.0) == c.monitor.series(0.0, 45.0)
    assert c2.measured_rate(5.0, 45.0) == c.measured_rate(5.0, 45.0)


def test_cluster_snapshot_state_is_json_safe():
    import json

    c = _cluster("TCP-PRESS")
    json.dumps(c.snapshot_state())


# ----------------------------------------------------------------------
# Restored instances keep the fresh attribute layout
# ----------------------------------------------------------------------


def _restore_noting_rebuilds(blob: bytes, monkeypatch) -> tuple:
    """Restore ``blob``; also return the ids of the objects it rebuilt
    through :func:`snapshot._set_attrs` (one entry per setter call)."""
    rebuilt = []
    set_attrs = snapshot._set_attrs

    def noting(obj, state):
        rebuilt.append(id(obj))
        set_attrs(obj, state)

    monkeypatch.setattr(snapshot, "_set_attrs", noting)
    restored = snapshot.restore(blob)
    monkeypatch.setattr(snapshot, "_set_attrs", set_attrs)
    return restored, rebuilt


def _plain_repro_instances(root) -> dict:
    """id -> object for every instance of a ``repro`` class without
    ``__slots__`` reachable from ``root`` (classes, modules and
    functions are not followed)."""
    stop = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, found, todo = set(), {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, stop):
            continue
        seen.add(id(obj))
        cls = type(obj)
        if (
            cls.__module__.startswith("repro.")
            and not isinstance(obj, enum.Enum)
            and not any("__slots__" in klass.__dict__ for klass in cls.__mro__)
        ):
            found[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("version", ["TCP-PRESS", "VIA-PRESS-5"])
def test_restore_rebuilds_every_plain_instance_attribute_by_attribute(
    version, monkeypatch
):
    """Pickle's default ``BUILD`` would leave restored objects with
    per-instance dicts, which run every callback slower than fresh
    ones; each plain ``repro`` instance must come back through the
    attribute-by-attribute setter instead, exactly once."""
    c = _cluster(version)
    blob = snapshot.capture(c)
    c2, rebuilt = _restore_noting_rebuilds(blob, monkeypatch)
    plain = _plain_repro_instances(c2)
    assert len(plain) > 50
    assert len(rebuilt) == len(set(rebuilt))
    assert set(rebuilt) == set(plain)
    assert snapshot.state_digest(c2) == snapshot.state_digest(c)


def test_engine_getstate_is_honoured(monkeypatch):
    """The engine's own ``__getstate__`` (which drops the timer
    freelist) decides what the setter rebuilds it from."""
    e = Engine()
    for i in range(5):
        e.call_after(float(i), lambda: None)
    e.run()
    assert e._freelist
    e2, rebuilt = _restore_noting_rebuilds(snapshot.capture(e), monkeypatch)
    assert id(e2) in rebuilt
    assert e2._freelist == []
    assert e2.snapshot_state() == e.snapshot_state()


def test_subclass_of_a_slotted_base_keeps_the_default_reduction(monkeypatch):
    """A ``repro`` class with ``__slots__`` anywhere in its MRO keeps its
    slot values only through pickle's default reduction; a plain one
    beside it takes the setter."""
    slotted = type("SlottedChild", (Event,), {"__module__": engine_module.__name__})
    plain = type("PlainThing", (), {"__module__": engine_module.__name__})
    monkeypatch.setattr(engine_module, "SlottedChild", slotted, raising=False)
    monkeypatch.setattr(engine_module, "PlainThing", plain, raising=False)
    e = Engine()
    child = slotted(e)
    child.value = 7  # a slot of Event
    child.extra = "in the instance dict"
    thing = plain()
    thing.note = "plain"
    blob = snapshot.capture((child, thing))
    (child2, thing2), rebuilt = _restore_noting_rebuilds(blob, monkeypatch)
    assert (child2.value, child2.extra) == (7, "in the instance dict")
    assert child2.engine is not e and thing2.note == "plain"
    assert id(child2) not in rebuilt
    assert id(thing2) in rebuilt and id(child2.engine) in rebuilt


def test_restore_interns_attribute_names(monkeypatch):
    """Restored attribute names are the interned strings compiled code
    uses, not pickle's copies: those would otherwise become the class's
    shared keys and type attribute cache entries and outlive the
    restore."""

    def fresh_class():
        return type("FreshThing", (), {"__module__": engine_module.__name__})

    monkeypatch.setattr(engine_module, "FreshThing", fresh_class(), raising=False)
    thing = engine_module.FreshThing()
    thing.restored_attr_name = 1
    blob = snapshot.capture(thing)
    # A class without instances takes its shared keys from the first
    # attributes set on it, here the restore's.
    monkeypatch.setattr(engine_module, "FreshThing", fresh_class())
    (name,) = vars(snapshot.restore(blob))
    assert name is sys.intern("restored_attr_name")


def test_capture_wraps_pickling_errors():
    class Hostile:
        def __reduce__(self):
            raise TypeError("nope")

    with pytest.raises(snapshot.SnapshotError):
        snapshot.capture(Hostile())
