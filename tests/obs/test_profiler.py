"""Unit contract of the wall-clock flight recorder.

The recorder's accounting rules — site identity, layer grouping, named
counters, the engine digest — independent of any campaign.  The
observer-effect and byte-identity contracts live in
``test_profiler_determinism.py``.
"""

from repro.obs.profiler import FlightRecorder, layer_of
from repro.sim.engine import Engine


class _Component:
    def __init__(self):
        self.fired = 0

    def tick(self):
        self.fired += 1


def test_bound_methods_share_a_site_across_instances():
    """Sites key on the code object, not the (recycled) bound method."""
    rec = FlightRecorder()
    a, b = _Component(), _Component()
    rec.record(a.tick, 0.5)
    rec.record(b.tick, 0.25)
    sites = rec.sites()
    assert len(sites) == 1
    assert sites[0]["events"] == 2
    assert sites[0]["self_s"] == 0.75
    assert sites[0]["site"].endswith("_Component.tick")


def test_plain_functions_and_closures_share_a_site():
    rec = FlightRecorder()

    def make():
        def cb():
            pass

        return cb

    rec.record(make(), 0.1)
    rec.record(make(), 0.2)  # distinct closure, same code object
    assert len(rec.sites()) == 1
    assert rec.sites()[0]["events"] == 2


def test_counters_accumulate():
    rec = FlightRecorder()
    rec.count("fabric.fast_cached")
    rec.count("fabric.fast_cached")
    rec.count("fabric.fast_train", 7)
    assert rec.counters == {"fabric.fast_cached": 2, "fabric.fast_train": 7}


def test_layer_of_maps_repro_modules_to_their_layer():
    assert layer_of("repro.net.fabric") == "net"
    assert layer_of("repro.sim.engine") == "sim"
    assert layer_of("tests.obs.test_profiler") == "tests"
    assert layer_of("builtins") == "builtins"


def test_layers_group_self_time_by_module():
    rec = FlightRecorder()
    rec.record(_Component().tick, 1.0)
    layers = rec.layers()
    assert list(layers) == ["tests"]
    assert layers["tests"]["events"] == 1
    assert layers["tests"]["self_s"] == 1.0


def test_engine_run_dispatches_to_the_profiled_loop():
    """Attaching a recorder makes every callback show up with self-time."""
    e = Engine()
    e.profiler = rec = FlightRecorder()
    fired = []

    def tick():
        fired.append(e.now)
        if len(fired) < 5:
            e.call_after(1.0, tick)

    e.call_after(1.0, tick)
    e.run()
    assert len(fired) == 5
    digest = rec.digest(e)
    assert digest["events"] == 5
    assert digest["self_s"] >= 0.0
    assert digest["engine"]["events_processed"] == e.events_processed
    # Every scheduled timer is either a fresh allocation or a freelist
    # reuse; the two columns partition the schedule count.
    eng = digest["engine"]
    assert eng["timer_allocs"] + eng["freelist_reuse"] == eng["scheduled"]


def test_recorder_never_survives_pickling():
    """Warm checkpoints must not embed host wall-clock state."""
    e = Engine()
    e.profiler = FlightRecorder()
    e.call_after(1.0, lambda: None)
    state = e.__getstate__()
    assert state["profiler"] is None


def test_digest_is_json_ready():
    import json

    e = Engine()
    e.profiler = rec = FlightRecorder()
    e.call_after(1.0, lambda: None)
    e.run()
    rec.count("fabric.slow", 3)
    json.dumps(rec.digest(e))  # must not raise
