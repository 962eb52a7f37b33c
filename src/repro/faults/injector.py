"""Mendosus: software fault injection for the simulated cluster.

Mirrors the real Mendosus's structure — kernel-level hooks for network,
node, and memory faults; a per-node daemon for process signals; and an
interposition layer between the application and the communication
library for bad-parameter faults.  Faults are injected into the *running*
system and annotated on the experiment timeline for later stage
extraction.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Optional

from ..net.fabric import Fabric
from ..net.link import intra_cluster_kind
from ..osim.node import Node
from ..sim.engine import Engine
from ..obs.events import FAULT_CLEARED, FAULT_INJECTED
from ..sim.monitor import Annotations
from ..transports.base import CorruptionKind, Message, Transport
from .spec import FaultKind, FaultSpec


class Mendosus:
    """The fault injector, wired to every fault surface of the cluster."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        nodes: Dict[str, Node],
        transports: Dict[str, Transport],
        annotations: Annotations,
    ):
        self.engine = engine
        self.fabric = fabric
        self.nodes = nodes
        self.transports = transports
        self.annotations = annotations
        self.injected: list[FaultSpec] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def schedule(self, spec: FaultSpec) -> None:
        """Arm ``spec`` to fire at its ``at`` time."""
        self.engine.call_at(spec.at, self.inject, spec)

    def inject(self, spec: FaultSpec) -> None:
        """Fire ``spec`` now."""
        self.injected.append(spec)
        self._publish(FAULT_INJECTED, spec)
        self.annotations.mark("fault-injected", spec.label())
        handler = {
            FaultKind.LINK_DOWN: self._link_down,
            FaultKind.SWITCH_DOWN: self._switch_down,
            FaultKind.NODE_CRASH: self._node_crash,
            FaultKind.NODE_FREEZE: self._node_freeze,
            FaultKind.KERNEL_MEMORY: self._kernel_memory,
            FaultKind.MEMORY_PINNING: self._memory_pinning,
            FaultKind.APP_HANG: self._app_hang,
            FaultKind.APP_CRASH: self._app_crash,
            FaultKind.BAD_PARAM_NULL: self._bad_param,
            FaultKind.BAD_PARAM_OFFSET: self._bad_param,
            FaultKind.BAD_PARAM_SIZE: self._bad_param,
        }[spec.kind]
        handler(spec)

    def _cleared(self, spec: FaultSpec) -> None:
        self._publish(FAULT_CLEARED, spec)
        self.annotations.mark("fault-cleared", spec.label())

    def _publish(self, name: str, spec: FaultSpec) -> None:
        self.engine.bus.publish(
            name,
            node=spec.target or "",
            fault=spec.label(),
            kind=spec.kind.value,
            target=spec.target or "",
        )

    # ------------------------------------------------------------------
    # Network hardware
    # ------------------------------------------------------------------
    def _link_down(self, spec: FaultSpec) -> None:
        link = self.fabric.link(spec.target)
        scope = spec.params.get("scope", "intra")
        if scope == "intra":
            # Mendosus differentiates traffic classes: only intra-cluster
            # frames are dropped; the clients stay undisturbed.
            link.fail_for(intra_cluster_kind)
        else:
            link.fail()
        if spec.duration > 0:
            self.engine.call_after(spec.duration, self._link_repair, spec, link)

    def _link_repair(self, spec: FaultSpec, link) -> None:
        link.repair()
        self._cleared(spec)

    def _switch_down(self, spec: FaultSpec) -> None:
        self.fabric.switch.fail()
        if spec.duration > 0:
            self.engine.call_after(spec.duration, self._switch_repair, spec)

    def _switch_repair(self, spec: FaultSpec) -> None:
        self.fabric.switch.repair()
        self._cleared(spec)

    # ------------------------------------------------------------------
    # Node faults
    # ------------------------------------------------------------------
    def _node_crash(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        transient = spec.params.get("transient", True)
        if transient:
            node.on_reboot_complete.append(
                _OneShot(partial(self._cleared, spec))
            )
        node.crash(transient=transient)

    def _node_freeze(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        node.freeze()
        if spec.duration > 0:
            self.engine.call_after(spec.duration, self._node_unfreeze, spec, node)

    def _node_unfreeze(self, spec: FaultSpec, node: Node) -> None:
        node.unfreeze()
        self._cleared(spec)

    # ------------------------------------------------------------------
    # Resource exhaustion
    # ------------------------------------------------------------------
    def _kernel_memory(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        kernel = node.kernel_memory  # bind the current kernel object
        kernel.inject_allocation_fault()
        if spec.duration > 0:
            self.engine.call_after(
                spec.duration, self._kernel_memory_clear, spec, kernel
            )

    def _kernel_memory_clear(self, spec: FaultSpec, kernel) -> None:
        kernel.clear_fault()
        self._cleared(spec)

    def _memory_pinning(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        pinnable = node.pinnable
        # The modified cLAN driver lowers the effective pin threshold;
        # default: half of what is currently pinned, so the holder must
        # shed (the paper's "drops files from its cache").
        fraction = spec.params.get("limit_fraction", 0.5)
        limit = spec.params.get("limit", int(pinnable.pinned * fraction))
        pinnable.inject_pin_fault(limit)
        if spec.duration > 0:
            self.engine.call_after(
                spec.duration, self._memory_pinning_clear, spec, pinnable
            )

    def _memory_pinning_clear(self, spec: FaultSpec, pinnable) -> None:
        pinnable.clear_fault()
        self._cleared(spec)

    # ------------------------------------------------------------------
    # Application faults (via the per-node daemon)
    # ------------------------------------------------------------------
    def _app_crash(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        node.process.on_start.append(_OneShot(partial(self._cleared, spec)))
        node.process.sigkill()

    def _app_hang(self, spec: FaultSpec) -> None:
        node = self.nodes[spec.target]
        node.process.sigstop()
        if spec.duration > 0:
            self.engine.call_after(spec.duration, self._app_resume, spec, node)

    def _app_resume(self, spec: FaultSpec, node: Node) -> None:
        node.process.sigcont()
        self._cleared(spec)

    # ------------------------------------------------------------------
    # Bad parameters (interposition layer)
    # ------------------------------------------------------------------
    def _bad_param(self, spec: FaultSpec) -> None:
        """Corrupt the parameters of the next send() / VipPostSend().

        The interposer traps exactly one call, mangles it per the spec,
        then removes itself — a transient application bug.
        """
        transport = self.transports[spec.target]
        corruption = {
            FaultKind.BAD_PARAM_NULL: CorruptionKind.NULL_POINTER,
            FaultKind.BAD_PARAM_OFFSET: CorruptionKind.OFF_BY_N_POINTER,
            FaultKind.BAD_PARAM_SIZE: CorruptionKind.OFF_BY_N_SIZE,
        }[spec.kind]
        state = {"fired": False}

        def interposer(msg: Message) -> Message:
            if state["fired"]:
                return msg
            state["fired"] = True
            transport.send_interposers.remove(interposer)
            self._cleared(spec)
            return replace(msg, corruption=corruption, skew=spec.off_by_n)

        transport.interpose_send(interposer)


class _OneShot:
    """A hook wrapper that fires once, then unregisters by becoming inert."""

    def __init__(self, fn):
        self.fn = fn
        self.fired = False

    def __call__(self, *args) -> None:
        if not self.fired:
            self.fired = True
            self.fn()
