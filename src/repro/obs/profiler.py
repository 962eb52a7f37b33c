"""Wall-clock flight recorder: where the *host's* time goes.

Every other observability layer (bus, spans, sketches, attribution)
explains the *simulated* system.  This one explains the simulator: which
layer's callbacks burn the wall-clock, how often the fabric fast path
actually engages, how much the engine's heap churns — the data a
performance change needs before picking what to optimize next.

Like the bus and the span collector, the recorder is an *attach point*
on the engine (``engine.profiler``), and every instrumentation site
guards with::

    profiler = self.engine.profiler
    if profiler is not None:
        ...

so a run with profiling disabled pays exactly one attribute load per
would-be probe (the ``profiler_guard_zero_overhead`` bench-gate claim
pins that at ~0).  The engine itself pays even less: ``Engine.run``
checks the attach point once per call and dispatches to a separate
instrumented loop, leaving the unprofiled hot loop untouched.

Determinism contract
--------------------
The recorder only ever *observes*: it reads ``time.perf_counter`` and
increments counters.  It never schedules events, mutates component
state, or perturbs iteration order, so a profiled run is byte-identical
to an unprofiled one — enforced by ``tests/obs/test_profiler_determinism``
and the CI ``perf-smoke`` job.  Its output is wall-clock and therefore
*volatile*: per-cell digests are persisted in the result store's
``perf/`` namespace (beside ``warmstart/`` and ``repetition/``), never
in the cell payload, so cache keys, payload fingerprints, and
``store-diff`` are untouched by nondeterministic timings.

Self-time attribution
---------------------
The engine's event loop is flat — a callback runs to completion before
the next event dispatches — so the wall-clock interval around one
callback *is* that event's self-time.  Events are keyed by their
callback's identity (the underlying code object for functions and bound
methods, the class for callable objects), which is stable across the
timer freelist's object recycling and across closure re-creation, and
grouped into *layers* by the callback's defining module
(``repro.net.fabric`` → ``net``).
"""

from __future__ import annotations

import time
from types import FunctionType, MethodType
from typing import Any, Dict, Optional, Tuple


def _site_key(fn) -> Any:
    """Stable identity of a callback site.

    Bound methods are re-created per attribute access and plain
    functions are re-created per closure, so both are keyed by their
    code object; callable instances (delivery callbacks, ``functools``
    partials, builtins) are keyed by their class.
    """
    t = type(fn)
    if t is MethodType:
        return fn.__func__.__code__
    if t is FunctionType:
        return fn.__code__
    return t


def _site_label(fn) -> Tuple[str, str]:
    """``(module, qualname)`` of a callback site, for display."""
    t = type(fn)
    if t is MethodType:
        f = fn.__func__
        return f.__module__ or "?", f.__qualname__
    if t is FunctionType:
        return fn.__module__ or "?", fn.__qualname__
    return t.__module__ or "?", t.__qualname__


def layer_of(module: str) -> str:
    """Map a defining module to its architectural layer.

    ``repro.net.fabric`` → ``net``, ``repro.sim.engine`` → ``sim``;
    non-repro callables (tests, stdlib) keep their top-level package.
    """
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


class FlightRecorder:
    """Accumulates per-event-kind self-time, counts, and named counters.

    One instance is attached per run (``engine.profiler = recorder``);
    :meth:`digest` renders the accumulated data JSON-ready for the
    per-cell perf record.
    """

    __slots__ = ("_sites", "counters", "_labels")

    def __init__(self) -> None:
        #: site key -> [count, self_seconds]
        self._sites: Dict[Any, list] = {}
        #: site key -> (module, qualname), resolved on first sight
        self._labels: Dict[Any, Tuple[str, str]] = {}
        #: named event counters (fabric fastpath hits, heap churn, ...)
        self.counters: Dict[str, int] = {}

    # -- hot-path API (called from instrumented loops) ------------------
    def record(self, fn, seconds: float) -> None:
        """Charge ``seconds`` of self-time to ``fn``'s site."""
        key = _site_key(fn)
        site = self._sites.get(key)
        if site is None:
            self._sites[key] = [1, seconds]
            self._labels[key] = _site_label(fn)
        else:
            site[0] += 1
            site[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        """Increment the named counter by ``n``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    # -- aggregation ----------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Self-time and event counts grouped by architectural layer."""
        out: Dict[str, Dict[str, float]] = {}
        for key, (count, seconds) in self._sites.items():
            module, _ = self._labels[key]
            row = out.setdefault(
                layer_of(module), {"events": 0, "self_s": 0.0}
            )
            row["events"] += count
            row["self_s"] += seconds
        return out

    def sites(self, top: int = 20) -> list:
        """The ``top`` costliest callback sites, by self-time."""
        rows = [
            {
                "site": f"{module}.{qualname}",
                "layer": layer_of(module),
                "events": count,
                "self_s": seconds,
            }
            for key, (count, seconds) in self._sites.items()
            for module, qualname in (self._labels[key],)
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["site"]))
        return rows[:top]

    def digest(self, engine: Optional[Any] = None, top: int = 20) -> dict:
        """JSON-ready summary for the per-cell perf record.

        ``engine`` (optional) contributes its scheduling/heap-churn
        counters.
        """
        total_events = sum(c for c, _ in self._sites.values())
        total_s = sum(s for _, s in self._sites.values())
        out = {
            "events": total_events,
            "self_s": total_s,
            "layers": {
                layer: {
                    "events": row["events"],
                    "self_s": row["self_s"],
                }
                for layer, row in sorted(self.layers().items())
            },
            "sites": self.sites(top),
            "counters": dict(sorted(self.counters.items())),
        }
        if engine is not None:
            out["engine"] = {
                "events_processed": engine.events_processed,
                "scheduled": engine._seq,
                "pending": engine.pending,
                "tombstones": engine.queued_tombstones,
                "timer_allocs": engine._timer_allocs,
                "freelist_reuse": engine._seq - engine._timer_allocs,
                "compactions": engine._compactions,
            }
        return out


#: Re-exported so instrumented loops avoid a module attribute load.
perf_counter = time.perf_counter
