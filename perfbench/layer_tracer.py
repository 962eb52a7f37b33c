"""Per-layer self time, measured from outside the program.

The tracer wraps, at class level, the calls into each layer of the
simulator: a layer's public functions and the callbacks it registers
with the engine, a NIC, a CPU work queue or the event bus.  Each wrapped
call is a span.  A span's *self time* is its duration minus the time its
child spans cover, kept with a stack; a layer's self time is the sum of
its spans' self times.  The ``sim`` layer is ``Engine.run``, so its self
time is the event loop plus any callback no other layer claims.

Wrappers keep the wrapped function's name and qualified name, so bound
methods and functions still pickle by reference and a warm-start
checkpoint taken under the tracer restores the same queued work.  The
tracer only reads clocks and public counters: a traced run simulates
exactly what an untraced run does.

Hooks whose target no longer exists are skipped and listed in
:attr:`LayerTracer.missing`, so a refactor that renames a callback
degrades the breakdown (the sim layer absorbs the time) instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

#: (layer, module, class or None for module functions, attribute names).
HOOKS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Engine", ("run",)),
    (
        "workload",
        "repro.workload.client",
        "ClientMachine",
        ("_fire", "_on_response", "_on_reject", "_on_timeout"),
    ),
    ("net", "repro.net.nic", "Nic", ("send", "send_train", "deliver")),
    (
        "net",
        "repro.net.fabric",
        "Fabric",
        ("_fast_deliver", "_switch_exit", "_at_switch", "_at_dst_link", "_deliver"),
    ),
    ("net", "repro.net.link", "Link", ("_arrive",)),
    ("net", "repro.net.switch", "Switch", ("_deliver",)),
    (
        "osim",
        "repro.osim.cpu",
        "WorkQueue",
        ("submit", "submit_front", "charge", "_complete", "_unblocked"),
    ),
    ("osim", "repro.osim.node", "Node", ("disk_read", "_disk_done", "_reboot")),
    ("osim", "repro.osim.process", "RestartDaemon", ("_restart",)),
    (
        "transports",
        "repro.transports.base",
        "Transport",
        ("_deliver_up", "_break_up", "_fatal_up"),
    ),
    (
        "transports",
        "repro.transports.tcp.connection",
        "TcpEndpoint",
        ("send", "handle_segment", "handle_ack", "_rto_fire", "_alloc_retry_fire"),
    ),
    (
        "transports",
        "repro.transports.tcp.transport",
        "TcpTransport",
        (
            "send_datagram", "_on_segment", "_on_ack", "_on_syn", "_on_synack",
            "_on_rst", "_on_close", "_on_dgram", "_syn_attempt",
            "_notify_accept", "_on_process_cont", "_on_process_death",
        ),
    ),
    (
        "transports",
        "repro.transports.via.channel",
        "ViaChannel",
        ("send", "handle_message", "handle_credits", "_drain", "_consume",
         "_flush_credits"),
    ),
    (
        "transports",
        "repro.transports.via.transport",
        "ViaTransport",
        (
            "send_datagram", "_on_data", "_on_credit", "_on_connect_request",
            "_on_accept_frame", "_on_reject", "_on_close", "_on_dgram",
            "_on_remote_error", "_on_nic_error", "_connect_attempt",
            "_notify_accept", "_local_fatal", "_on_process_death",
            "_on_process_cont",
        ),
    ),
    ("press", "repro.press.http", "HttpPort", ("_on_frame", "_dispatch")),
    (
        "press",
        "repro.press.server",
        "PressServer",
        (
            "_on_message", "_disk_done", "_serve_after_disk",
            "_remote_disk_done", "_flush_timer_fired", "_on_break",
            "_on_accept", "_on_datagram", "_on_fatal", "_incarnate", "_cleanup",
        ),
    ),
    ("press", "repro.press.cache", "FileCache", ("lookup", "insert")),
    (
        "press",
        "repro.press.membership",
        "Membership",
        ("_heartbeat_tick", "_remerge_tick", "_join_attempt", "handle_datagram"),
    ),
    ("obs", "repro.obs.bus", "EventBus", ("publish",)),
    ("obs", "repro.obs.observatory", "Observatory", ("finish", "summary")),
    ("obs", "repro.obs.exporters", None, ("telemetry_summary",)),
    ("core", "repro.core.extract", None, ("extract_profile",)),
    ("core", "repro.core.divergence", None, ("divergence_report",)),
    ("core", "repro.core.model", None, ("evaluate",)),
    ("experiments", "repro.experiments.runner", None, ("run_campaign",)),
    (
        "experiments",
        "repro.experiments.warmstart",
        "WarmStartCache",
        ("ensure", "obtain"),
    ),
    ("experiments", "repro.experiments.store", "MemoryStore", ("put",)),
    ("experiments", "repro.sim.snapshot", None, ("capture", "restore")),
    (
        "faults",
        "repro.faults.injector",
        "Mendosus",
        (
            "inject", "_cleared", "_link_repair", "_switch_repair",
            "_node_unfreeze", "_kernel_memory_clear", "_memory_pinning_clear",
            "_app_resume",
        ),
    ),
)

#: Every layer the tracer charges time to, in report order.
LAYERS = (
    "sim", "workload", "net", "osim", "transports", "press", "obs", "core",
    "experiments", "faults",
)

#: Hooks whose calls also advance a count: hook key -> (count name, the
#: public counter on the call's first argument whose change is counted).
_COUNTED = {
    "repro.sim.engine.Engine.run": ("sim.events", "events_processed"),
    "repro.osim.cpu.WorkQueue._complete": ("osim.work_items", "items_executed"),
}
#: Hooks whose inclusive time is kept besides their self time (they
#: never call themselves, so inclusive times add up without overlap).
_INCLUSIVE = {"repro.sim.snapshot.capture", "repro.sim.snapshot.restore"}


class LayerTracer:
    """Stack-based self-time accounting over wrapped layer entry points.

    ``install()`` patches every hook; ``activate()`` opens the measured
    window (spans already open are clipped to start there, and anything
    recorded before is discarded); ``uninstall()`` restores the program.
    """

    def __init__(self):
        #: layer -> exclusive seconds inside the window
        self.self_s: Dict[str, float] = defaultdict(float)
        #: hook key ("module.Class.name") -> calls completed in the window
        self.calls: Counter = Counter()
        #: hook key -> inclusive seconds, for the keys in ``_INCLUSIVE``
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        #: counts read at the boundary, for the keys in ``_COUNTED``
        self.counts: Counter = Counter()
        #: hook keys whose target does not exist in this program version
        self.missing: List[str] = []
        # One frame per open span: [start, seconds covered by children].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "LayerTracer":
        for layer, module_name, class_name, names in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None:
                self.missing.extend(f"{module_name}.{class_name}.{n}" for n in names)
                continue
            for name in names:
                self._patch(layer, module_name, class_name, owner, name)
        return self

    def _patch(self, layer, module_name, class_name, owner, name) -> None:
        label = f"{module_name}.{class_name}.{name}" if class_name else (
            f"{module_name}.{name}"
        )
        if isinstance(owner, type):
            # Patch the class that defines the method, so the wrapper's
            # qualified name resolves to the wrapper itself (pickling by
            # reference depends on it).
            owner = next((c for c in owner.__mro__ if name in c.__dict__), None)
            fn = owner.__dict__.get(name) if owner is not None else None
        else:
            fn = getattr(owner, name, None)
        if owner is None or not callable(fn) or isinstance(
            fn, (staticmethod, classmethod, property)
        ):
            self.missing.append(label)
            return
        if any(o is owner and n == name for o, n, _ in self._patches):
            return
        self._patches.append((owner, name, fn))
        setattr(owner, name, self._wrap(layer, label, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def activate(self) -> float:
        """Open the measured window now; returns its start time."""
        now = time.perf_counter()
        self.self_s.clear()
        self.calls.clear()
        self.inclusive_s.clear()
        self.counts.clear()
        for frame in self._stack:
            frame[0] = now
            frame[1] = 0.0
        return now

    # -- accounting ----------------------------------------------------
    def _wrap(self, layer: str, key: str, fn):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        inclusive = self.inclusive_s
        counts = self.counts

        counted = _COUNTED.get(key)
        keep_inclusive = key in _INCLUSIVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted is not None:
                before = getattr(args[0], counted[1])
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                if counted is not None:
                    counts[counted[0]] += getattr(args[0], counted[1]) - before
                if keep_inclusive:
                    inclusive[key] += duration

        return traced

    # -- results -------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}

    def calls_matching(self, *suffixes: str) -> int:
        """Calls completed in the window by hooks whose key ends with any
        of ``suffixes`` (e.g. ``".send_datagram"``)."""
        return sum(
            n for key, n in self.calls.items()
            if any(key.endswith(s) for s in suffixes)
        )
