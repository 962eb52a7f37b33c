"""Unit contract of the wall-clock layer profiler.

The profiler's accounting rules — hook table, exact self time, layer
and site sums, engine and fabric counts, clean uninstall — on short
runs.  The observer-effect and byte-identity contracts live in
``test_profiler_determinism.py``.
"""

import cProfile
import importlib
import json
import pickle
import pstats
from collections import defaultdict

import pytest

from repro.experiments.phase1 import run_baseline
from repro.experiments.settings import Phase1Settings
from repro.net.fabric import Fabric
from repro.obs.bus import EventRecorder
from repro.obs.observatory import Observatory
from repro.obs.profiler import HOOKS, LAYERS, LayerProfiler
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED
from repro.sim.engine import Engine

#: A steady TCP-PRESS cell, 60 simulated seconds: four nodes at
#: utilization 0.9, the layout of perfbench's steady workloads.
STEADY = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=7,
    utilization=0.9,
    n_nodes=4,
    warm=15.0,
    fault_at=45.0,
    replications=1,
)


def steady_cell():
    obs = Observatory(
        recorder=EventRecorder(keep_events=False), env=STEADY.environment
    )
    tn, cluster = run_baseline(
        ALL_VERSIONS_EXTENDED["TCP-PRESS"], STEADY, recorder=obs
    )
    obs.finish(cluster)
    return tn


@pytest.fixture(scope="module")
def profiled_steady():
    profiler = LayerProfiler()
    tn = profiler.run(steady_cell)
    return profiler, tn


def _targets() -> dict:
    """(owner, attribute) -> (layer, the object installed there), for
    every hook; the owner is the class that defines the method."""
    out = {}
    for layer, module_name, class_name, names in HOOKS:
        module = importlib.import_module(module_name)
        for name in names.split():
            if class_name is None:
                out[(module, name)] = (layer, getattr(module, name))
            else:
                owner = next(
                    c
                    for c in getattr(module, class_name).__mro__
                    if name in c.__dict__
                )
                out[(owner, name)] = (layer, owner.__dict__[name])
    return out


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------


def _hook_layers() -> dict:
    """Code location of every hooked function (and the root) -> layer."""
    out = {}
    for layer, fn in _targets().values():
        code = fn.__code__
        out[(code.co_filename, code.co_firstlineno, code.co_name)] = layer
    code = steady_cell.__code__
    out[(code.co_filename, code.co_firstlineno, code.co_name)] = "experiments"
    return out


def _cprofile_layer_self(stats: pstats.Stats) -> dict:
    """Per-layer self time from a cProfile call graph.

    A hooked function's own time belongs to its layer.  Any other
    function's own time is split over its callers' layers in proportion
    to the time it spent under each caller (gprof-style propagation),
    iterated to a fixed point over the call graph.
    """
    hooked = _hook_layers()
    raw = stats.stats
    share = {f: {hooked[f]: 1.0} for f in raw if f in hooked}
    for _ in range(60):
        changed = False
        for func, (_cc, _nc, _tt, _ct, callers) in raw.items():
            if func in hooked:
                continue
            mix = defaultdict(float)
            for caller, edge in callers.items():
                weight = edge[2] or edge[3] or 1e-12
                for layer, s in share.get(caller, {}).items():
                    mix[layer] += weight * s
            total = sum(mix.values())
            if total:
                new = {layer: w / total for layer, w in mix.items()}
                if new != share.get(func):
                    share[func] = new
                    changed = True
        if not changed:
            break
    self_s = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        for layer, s in share.get(func, {}).items():
            self_s[layer] += tt * s
    return self_s


def _shares(self_s: dict) -> dict:
    total = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    return {layer: self_s.get(layer, 0.0) / total for layer in LAYERS}


def test_layer_shares_agree_with_cprofile(profiled_steady):
    profiler, _tn = profiled_steady
    traced = _shares(
        {layer: row["self_s"] for layer, row in profiler.layers().items()}
    )
    cprof = cProfile.Profile()
    cprof.enable()
    steady_cell()
    cprof.disable()
    profiled = _shares(_cprofile_layer_self(pstats.Stats(cprof)))

    busy = [
        layer
        for layer in LAYERS
        if max(traced[layer], profiled[layer]) >= 0.05
    ]
    assert {"sim", "net", "osim", "press", "workload"} <= set(busy), (
        traced,
        profiled,
    )
    for layer in busy:
        assert abs(traced[layer] - profiled[layer]) <= 0.06, (
            layer,
            traced,
            profiled,
        )


def test_every_hook_exists():
    profiler = LayerProfiler().install()
    profiler.uninstall()
    assert profiler.missing == []


def test_layer_self_times_sum_to_the_window(profiled_steady):
    profiler, _tn = profiled_steady
    total = sum(row["self_s"] for row in profiler.layers().values())
    assert profiler.window_s > 0
    assert abs(total - profiler.window_s) <= 0.02 * profiler.window_s
    # The hooks, not the root span, cover the cell's work: what runs
    # outside every hook (building the cluster, the runner's own code)
    # is a small remainder.
    assert profiler.layers()["experiments"]["self_s"] < 0.1 * profiler.window_s


def test_uninstall_restores_every_attribute_even_when_the_cell_raises():
    before = _targets()

    def failing_cell():
        engine = Engine()
        engine.call_after(1.0, lambda: None)
        engine.run()
        raise RuntimeError("cell failed")

    profiler = LayerProfiler()
    with pytest.raises(RuntimeError, match="cell failed"):
        profiler.run(failing_cell)
    after = _targets()
    assert after.keys() == before.keys()
    for target, (_layer, original) in before.items():
        assert after[target][1] is original, target
    assert profiler.calls["repro.sim.engine.Engine.run"] == 1


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


def test_bound_methods_share_a_site_across_instances():
    """Hooks are class-level: every instance's calls land on one key."""
    profiler = LayerProfiler()

    def two_engines():
        for _ in range(2):
            engine = Engine()
            engine.call_after(1.0, lambda: None)
            engine.run()

    profiler.run(two_engines)
    site = next(
        s for s in profiler.sites() if s["site"] == "repro.sim.engine.Engine.run"
    )
    assert site["calls"] == 2
    assert site["layer"] == "sim"


def test_layer_of_maps_repro_modules_to_their_layer():
    """A hook's layer is its package, except that checkpoint capture
    and restore are campaign (experiments) work."""
    profiler = LayerProfiler().install()
    profiler.uninstall()
    for key, layer in profiler.layer_of.items():
        assert layer in LAYERS
        if key.startswith("repro.sim.snapshot."):
            assert layer == "experiments"
        else:
            assert key.split(".")[1] == layer, key


def test_layers_group_self_time_by_module(profiled_steady):
    """Layer totals and sites are both sums over one self-time dict."""
    profiler, _tn = profiled_steady
    expected = defaultdict(float)
    for key, seconds in profiler.self_s.items():
        expected[profiler.layer_of[key]] += seconds
    layers = profiler.layers()
    assert {"sim", "obs"} <= set(layers)
    for layer, row in layers.items():
        assert row["self_s"] == pytest.approx(expected[layer])
    top = profiler.sites(top=5)
    assert len(top) == 5
    assert [s["self_s"] for s in top] == sorted(
        (s["self_s"] for s in top), reverse=True
    )
    for site in top:
        assert site["self_s"] == profiler.self_s[site["site"]]
        assert site["calls"] == profiler.calls[site["site"]]


def test_engine_run_counts_events_and_heap_churn():
    """Engine counters are summed over each Engine.run call's change."""
    engine = Engine()
    fired = []

    def tick():
        fired.append(engine.now)
        if len(fired) < 5:
            engine.call_after(1.0, tick)

    def cell():
        engine.call_after(1.0, tick)
        engine.run()

    profiler = LayerProfiler()
    profiler.run(cell)
    digest = profiler.digest()
    assert len(fired) == 5
    assert digest["events"] == engine.events_processed == 5
    eng = digest["engine"]
    # The first timer is scheduled outside Engine.run, the other four
    # inside it; each is either allocated or reused from the freelist.
    assert eng["scheduled"] == 4
    assert eng["timer_allocs"] + eng["freelist_reuse"] == eng["scheduled"]


def test_fabric_frames_are_hook_call_counts(profiled_steady):
    profiler, _tn = profiled_steady
    fabric = profiler.digest()["fabric"]
    assert fabric["fast_frames"] == profiler.calls[
        "repro.net.fabric.Fabric._fast_deliver"
    ] > 0
    assert fabric["reference_frames"] == profiler.calls[
        "repro.net.fabric.Fabric._at_switch"
    ]


def test_recorder_never_survives_pickling():
    """Checkpoints carry no profiler: the engine has no attach point,
    and callbacks queued while wrapped restore as the plain methods."""
    engine = Engine()
    fabric = Fabric(engine)
    assert "profiler" not in engine.__getstate__()
    profiler = LayerProfiler().install()
    try:
        engine.call_at(1.0, fabric._at_switch, None, 0)
        blob = pickle.dumps(engine)
    finally:
        profiler.uninstall()
    restored = pickle.loads(blob)
    entries = [e for e in [restored._next, *restored._heap] if e is not None]
    (timer,) = [entry[2] for entry in entries]
    assert timer.fn.__func__ is Fabric.__dict__["_at_switch"]


def test_digest_is_json_ready(profiled_steady):
    profiler, _tn = profiled_steady
    digest = profiler.digest()
    json.dumps(digest)  # must not raise
    assert digest["window_s"] == profiler.window_s
    assert digest["calls"] == sum(profiler.calls.values())
    assert digest["events"] > 0
