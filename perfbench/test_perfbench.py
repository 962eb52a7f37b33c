"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that the tracer's per-layer attribution agrees with stdlib
``cProfile``, that the tracer does not change simulated results, that
the result check rejects a result from another seed, and that a
campaign repeated in one process still simulates every cell.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
from layer_tracer import HOOKS, LAYERS, LayerTracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture
def short_steady(monkeypatch):
    """Steady cells of 60 simulated seconds instead of the full horizon."""
    monkeypatch.setattr(bw, "STEADY_HORIZON", 60.0)


@pytest.fixture
def small_campaign(monkeypatch):
    """A campaign over one link and one application fault."""
    from repro.faults.spec import FaultKind

    monkeypatch.setattr(
        bw, "CAMPAIGN_FAULTS", (FaultKind.LINK_DOWN, FaultKind.APP_CRASH)
    )


def _hook_layers() -> dict:
    """Code location of every hooked function -> its layer."""
    out = {}
    for layer, module_name, class_name, names in HOOKS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for name in names:
            code = getattr(getattr(owner, name, None), "__code__", None)
            if code is not None:
                out[(code.co_filename, code.co_firstlineno, code.co_name)] = layer
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


def test_tracer_attribution_agrees_with_cprofile(short_steady):
    tracer = LayerTracer()
    bw.execute("steady-via", 7, tracer)
    traced = _shares(tracer.layer_self())

    profiler = cProfile.Profile()
    profiler.enable()
    bw.execute("steady-via", 7)
    profiler.disable()
    profiled = _shares(_cprofile_layer_self(pstats.Stats(profiler)))

    busy = [layer for layer in LAYERS if max(traced[layer], profiled[layer]) >= 0.05]
    assert {"sim", "net", "osim", "press", "workload"} <= set(busy), (traced, profiled)
    for layer in busy:
        assert abs(traced[layer] - profiled[layer]) <= 0.06, (layer, traced, profiled)


def test_tracer_is_invisible_and_accounts_for_wall_time(short_steady):
    plain = bw.execute("steady-tcp", 7)
    tracer = LayerTracer()
    traced = bw.execute("steady-tcp", 7, tracer)
    assert traced.fingerprint == plain.fingerprint
    assert not tracer.missing
    layers = bw.layer_metrics(tracer, traced)
    assert abs(layers["trace.unattributed_share"]) <= bw.BREAKDOWN_TOLERANCE
    assert layers["sim.events"] > 0
    assert layers["workload.requests"] == plain.requests > 0
    assert layers["transports.messages"] > 0


def test_traced_campaign_matches_untraced(small_campaign):
    """Warm-start capture pickles queued work; under the tracer it must
    checkpoint and restore the same simulation."""
    plain = bw.execute("campaign", 7)
    tracer = LayerTracer()
    traced = bw.execute("campaign", 7, tracer)
    assert traced.fingerprint == plain.fingerprint
    layers = bw.layer_metrics(tracer, traced)
    assert abs(layers["trace.unattributed_share"]) <= bw.BREAKDOWN_TOLERANCE
    assert layers["faults.injected"] == 4
    assert layers["experiments.warm_capture_s"] > 0
    assert layers["experiments.warm_restore_s"] > 0
    assert layers["core.self_s"] > 0


def test_repeated_campaign_simulates_every_cell(small_campaign):
    cells = len(bw.CAMPAIGN_VERSIONS) * (1 + len(bw.CAMPAIGN_FAULTS))
    runs = [bw.execute("campaign", 7) for _ in range(2)]
    for run in runs:
        assert run.campaign["executed"] == cells
        assert run.campaign["cached"] == 0
        # One warm segment simulated per version; every cell restores it.
        assert run.campaign["warm_start"] == {
            "miss": len(bw.CAMPAIGN_VERSIONS),
            "hit": cells,
        }
    assert runs[0].fingerprint == runs[1].fingerprint
    assert runs[0].requests == runs[1].requests > 0


def test_result_check_rejects_another_seeds_result():
    prints = REFERENCE["workloads"]["steady-via"]["fingerprints"]
    default = str(REFERENCE["default_seed"])
    held_out = str(REFERENCE["held_out_seed"])
    run = bw.execute("steady-via", int(held_out))
    assert run.fingerprint == prints[held_out]
    record = {"fingerprint": run.fingerprint}
    assert bench_run.failures([record], prints[held_out]) == 0
    assert bench_run.failures([record], prints[default]) == 1
