"""Wall-clock profile of one campaign cell: where the *host's* time goes.

Every other observability layer explains the *simulated* system; this
one explains the simulator.  :class:`LayerProfiler` wraps, at class
level, the entry points of every layer listed in :data:`HOOKS`: a
layer's public functions and the callbacks it registers with the
engine, a NIC, a CPU work queue or the event bus.  Each wrapped call is
a span, and a span's *self time* is its duration minus the time its
child spans cover, kept with a stack — so a callback that crosses layers
(``WorkQueue._complete`` running transport and PRESS work, say) charges
each layer only what that layer ran.  :meth:`LayerProfiler.run` makes
the cell itself the root span (charged to ``experiments``), so the self
times add up to the profiled window.  The ``sim`` layer is
``Engine.run``: the event loop plus any callback no other layer claims.

The accounting is one self-time dict and one call-count dict, both keyed
by hook; layer totals are sums over them, each hook that ran is a
*site*, and the fabric's frame counts are hook call counts
(``Fabric._fast_deliver`` per fast-path frame, ``Fabric._at_switch`` per
reference-path frame).

Nothing is attached to the engine: the hooks exist only between
:meth:`~LayerProfiler.install` and :meth:`~LayerProfiler.uninstall`, so
an unprofiled run executes exactly the code it would without this
module.  Wrappers keep the wrapped function's name and qualified name,
and the class that *defines* a method is the one patched, so callbacks
pickle by reference, the only way the snapshot pickler encodes a
function: a warm-start checkpoint captured under the profiler restores
the same queued work without it, and vice versa.  The profiler
only reads clocks and public counters, so a profiled cell is
byte-identical to an unprofiled one (``tests/obs/
test_profiler_determinism.py``, CI ``observers-invisible``); its
wall-clock output lands in the campaign's ``BENCH_campaign.json``
ledger, never in a cell payload.

The hook table mirrors ``perfbench/layer_tracer.py``, which stays the
independent referee (``perfbench/run.py --trace 1``).  Here a hook whose
target no longer exists is listed in :attr:`LayerProfiler.missing` and
fails ``tests/obs/test_profiler.py``, rather than letting the ``sim``
layer silently absorb its time.
"""

from __future__ import annotations

import functools
import importlib
import time
from types import FunctionType
from typing import Dict, List, Optional, Tuple

#: (layer, module, class or None for module functions, attribute names).
HOOKS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim", "repro.sim.engine", "Engine", "run"),
    ("workload", "repro.workload.client", "ClientMachine",
     "_fire _on_response _on_reject _on_timeout"),
    ("net", "repro.net.nic", "Nic", "send send_train deliver"),
    ("net", "repro.net.fabric", "Fabric",
     "_fast_deliver _switch_exit _at_switch _at_dst_link _deliver"),
    ("net", "repro.net.link", "Link", "_arrive"),
    ("net", "repro.net.switch", "Switch", "_deliver"),
    ("osim", "repro.osim.cpu", "WorkQueue",
     "submit submit_front charge _complete _unblocked"),
    ("osim", "repro.osim.node", "Node", "disk_read _disk_done _reboot"),
    ("osim", "repro.osim.process", "RestartDaemon", "_restart"),
    ("transports", "repro.transports.base", "Transport",
     "_deliver_up _break_up _fatal_up"),
    ("transports", "repro.transports.tcp.connection", "TcpEndpoint",
     "send handle_segment handle_ack _rto_fire _alloc_retry_fire"),
    ("transports", "repro.transports.tcp.transport", "TcpTransport",
     "send_datagram _on_segment _on_ack _on_syn _on_synack _on_rst _on_close"
     " _on_dgram _syn_attempt _notify_accept _on_process_cont"
     " _on_process_death"),
    ("transports", "repro.transports.via.channel", "ViaChannel",
     "send handle_message handle_credits _drain _consume _flush_credits"),
    ("transports", "repro.transports.via.transport", "ViaTransport",
     "send_datagram _on_data _on_credit _on_connect_request _on_accept_frame"
     " _on_reject _on_close _on_dgram _on_remote_error _on_nic_error"
     " _connect_attempt _notify_accept _local_fatal _on_process_death"
     " _on_process_cont"),
    ("press", "repro.press.http", "HttpPort", "_on_frame _dispatch"),
    ("press", "repro.press.server", "PressServer",
     "_on_message _disk_done _serve_after_disk _remote_disk_done"
     " _flush_timer_fired _on_break _on_accept _on_datagram _on_fatal"
     " _incarnate _cleanup"),
    ("press", "repro.press.cache", "FileCache", "lookup insert"),
    ("press", "repro.press.membership", "Membership",
     "_heartbeat_tick _remerge_tick _join_attempt handle_datagram"),
    ("obs", "repro.obs.bus", "EventBus", "publish"),
    ("obs", "repro.obs.observatory", "Observatory", "finish summary"),
    ("obs", "repro.obs.exporters", None, "telemetry_summary"),
    ("core", "repro.core.extract", None, "extract_profile"),
    ("core", "repro.core.divergence", None, "divergence_report"),
    ("experiments", "repro.experiments.warmstart", "WarmStartCache",
     "ensure obtain"),
    ("experiments", "repro.sim.snapshot", None, "capture restore"),
    ("faults", "repro.faults.injector", "Mendosus",
     "inject _cleared _link_repair _switch_repair _node_unfreeze"
     " _kernel_memory_clear _memory_pinning_clear _app_resume"),
)

#: Every layer the profiler charges time to, in report order.
LAYERS = (
    "sim", "workload", "net", "osim", "transports", "press", "obs", "core",
    "experiments", "faults",
)

#: Engine counters whose change across each ``Engine.run`` call is
#: summed into :attr:`LayerProfiler.engine`: events fired, timers
#: scheduled, Timer objects allocated (the rest came off the freelist),
#: and tombstone compactions of the heap.
ENGINE_COUNTERS = ("events_processed", "_seq", "_timer_allocs", "_compactions")

_ENGINE_RUN = "repro.sim.engine.Engine.run"
#: One call per frame on each of the fabric's two paths.
_FAST_FRAME = "repro.net.fabric.Fabric._fast_deliver"
_REFERENCE_FRAME = "repro.net.fabric.Fabric._at_switch"


class LayerProfiler:
    """Stack-based self-time accounting over wrapped layer entry points.

    ``run(fn, *args)`` installs every hook, calls ``fn`` as the root
    span, and uninstalls again; :meth:`digest` renders the result
    JSON-ready for the per-cell perf record, which
    :func:`repro.analysis.perf.aggregate_perf` sums as it is.
    """

    def __init__(self) -> None:
        #: hook key ("module.Class.name") -> exclusive seconds
        self.self_s: Dict[str, float] = {}
        #: hook key -> completed calls
        self.calls: Dict[str, int] = {}
        #: hook key -> its layer
        self.layer_of: Dict[str, str] = {}
        #: :data:`ENGINE_COUNTERS` -> change summed over ``Engine.run`` calls
        self.engine: Dict[str, int] = dict.fromkeys(ENGINE_COUNTERS, 0)
        #: hook keys whose target does not exist in this program version
        self.missing: List[str] = []
        #: inclusive seconds of the root spans :meth:`run` opened
        self.window_s = 0.0
        # One frame per open span: [start, seconds covered by children].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "LayerProfiler":
        for layer, module_name, class_name, names in HOOKS:
            module = importlib.import_module(module_name)
            cls = getattr(module, class_name, None) if class_name else None
            prefix = f"{module_name}.{class_name}" if class_name else module_name
            for name in names.split():
                # Patch the class that defines the method, so the wrapper's
                # qualified name resolves to the wrapper itself (pickling
                # by reference depends on it).
                owner = module if class_name is None else next(
                    (c for c in getattr(cls, "__mro__", ()) if name in vars(c)),
                    None,
                )
                fn = vars(owner).get(name) if owner is not None else None
                if not isinstance(fn, FunctionType):
                    self.missing.append(f"{prefix}.{name}")
                    continue
                self._patches.append((owner, name, fn))
                setattr(owner, name, self._wrap(layer, f"{prefix}.{name}", fn))
        return self

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` with every hook installed, as an ``experiments``
        span covering the whole window; the hooks are removed again even
        when ``fn`` raises."""
        root = self._wrap(
            "experiments", f"{fn.__module__}.{fn.__qualname__}", fn
        )
        self.install()
        start = time.perf_counter()
        try:
            return root(*args, **kwargs)
        finally:
            self.window_s += time.perf_counter() - start
            self.uninstall()

    # -- accounting ----------------------------------------------------
    def _wrap(self, layer: str, key: str, fn):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        self.layer_of[key] = layer
        self_s.setdefault(key, 0.0)
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[key] += duration - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += duration

        if key != _ENGINE_RUN:
            return traced
        engine_counts = self.engine

        @functools.wraps(fn)
        def traced_run(engine, *args, **kwargs):
            before = [getattr(engine, name) for name in ENGINE_COUNTERS]
            try:
                return traced(engine, *args, **kwargs)
            finally:
                for name, was in zip(ENGINE_COUNTERS, before):
                    engine_counts[name] += getattr(engine, name) - was

        return traced_run

    # -- results -------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Calls and self time per layer, summed over the hooks."""
        out: Dict[str, Dict[str, float]] = {}
        for key, n in self.calls.items():
            if n:
                row = out.setdefault(
                    self.layer_of[key], {"calls": 0, "self_s": 0.0}
                )
                row["calls"] += n
                row["self_s"] += self.self_s[key]
        return {layer: out[layer] for layer in LAYERS if layer in out}

    def sites(self) -> List[dict]:
        """Every hook that ran, costliest self time first."""
        rows = [
            {
                "site": key,
                "layer": self.layer_of[key],
                "calls": n,
                "self_s": self.self_s[key],
            }
            for key, n in self.calls.items()
            if n
        ]
        rows.sort(key=lambda r: (-r["self_s"], r["site"]))
        return rows

    def digest(self) -> dict:
        """JSON-ready summary for the per-cell perf record, with every
        site that ran: only the campaign ledger cuts the sites, to the
        :data:`~repro.analysis.perf.TOP_SITES` costliest sums."""
        eng = self.engine
        return {
            "window_s": self.window_s,
            "self_s": sum(self.self_s.values()),
            "calls": sum(self.calls.values()),
            "events": eng["events_processed"],
            "layers": self.layers(),
            "sites": self.sites(),
            "fabric": {
                "fast_frames": self.calls.get(_FAST_FRAME, 0),
                "reference_frames": self.calls.get(_REFERENCE_FRAME, 0),
            },
            "engine": {
                "events_processed": eng["events_processed"],
                "scheduled": eng["_seq"],
                "timer_allocs": eng["_timer_allocs"],
                "freelist_reuse": eng["_seq"] - eng["_timer_allocs"],
                "compactions": eng["_compactions"],
            },
        }
