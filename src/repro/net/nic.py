"""Network interface cards.

A NIC is the attachment point of a node to its link.  It exposes:

* ``send(frame)`` — put a frame on the wire (returns False when it is
  certain at submit time that the frame is lost: NIC powered off or link
  down *and the fabric reports errors*, see below);
* a registered receive handler, called for each arriving frame while the
  NIC is powered.

Error reporting is the crux of the paper's TCP-vs-VIA comparison, so the
NIC models it explicitly: a SAN NIC (``reports_errors=True``, like cLAN)
detects a dead link/peer at the hardware level and invokes the
``error_handler`` — this is what breaks VIA connections "almost
instantaneously".  A plain LAN NIC (``reports_errors=False``) silently
loses frames, leaving detection to transport timeouts — TCP's world.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..obs.metrics import bound_counter
from ..sim.engine import Engine
from .link import Link
from .packet import Frame


class Nic:
    """A node's interface to the fabric."""

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        link: Link,
        reports_errors: bool = True,
    ):
        self.engine = engine
        self.node_id = node_id
        self.link = link
        self.reports_errors = reports_errors
        self.powered = True
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        self._kind_handlers: dict[str, Callable[[Frame], None]] = {}
        self.error_handler: Optional[Callable[[str], None]] = None
        self._frames_sent = bound_counter(engine, "net.nic.frames_sent", node=node_id)
        self._frames_received = bound_counter(
            engine, "net.nic.frames_received", node=node_id
        )
        self._frames_dropped_rx = bound_counter(
            engine, "net.nic.frames_dropped_rx", node=node_id
        )
        self._fabric = None  # set by Fabric.attach
        # Fast-path route cache, owned by the fabric: dst -> (src_link,
        # dst_link) for every destination whose path was found clean
        # since the last topology transition (see Fabric._check_fast).
        # It serves the frames this NIC sources.
        self._routes: dict = {}

    @property
    def frames_sent(self) -> int:
        return self._frames_sent.value

    @property
    def frames_received(self) -> int:
        return self._frames_received.value

    @property
    def frames_dropped_rx(self) -> int:
        return self._frames_dropped_rx.value

    # -- wiring ------------------------------------------------------------
    def on_receive(self, handler: Callable[[Frame], None]) -> None:
        """Fallback handler for frame kinds without a registered handler."""
        self.rx_handler = handler

    def register(self, kind: str, handler: Callable[[Frame], None]) -> None:
        """Route frames of exactly ``kind`` to ``handler``.

        Transports and the HTTP front end each register their own kinds on
        the shared NIC.
        """
        self._kind_handlers[kind] = handler

    def on_error(self, handler: Callable[[str], None]) -> None:
        """Register the hardware error callback (SAN NICs only)."""
        self.error_handler = handler

    # -- power / fault control ----------------------------------------------
    def power_off(self) -> None:
        """Node crash: the NIC stops sending and receiving."""
        if self._fabric is not None:
            self._fabric._fastpath_transition()
        self.powered = False

    def power_on(self) -> None:
        if self._fabric is not None:
            self._fabric._fastpath_transition()
        self.powered = True

    # -- data path ---------------------------------------------------------
    def send(self, frame: Frame) -> bool:
        """Submit a frame to the fabric.

        Returns True when the frame was accepted for transmission.  A
        False return means the frame was lost at submit time; whether the
        *sender software* learns about it depends on ``reports_errors``
        (the fabric calls :meth:`report_error` for SAN NICs).
        """
        if not self.powered:
            return False
        route = self._routes.get(frame.dst)
        if route is not None:
            # Clean path known: a fast submit cannot fail.
            self._fabric._fast_send(frame, route)
            self._frames_sent.value += 1
            return True
        if self._fabric is None:
            raise RuntimeError(f"NIC {self.node_id} not attached to a fabric")
        accepted = self._fabric.transmit(self, frame)
        if accepted:
            self._frames_sent.value += 1
        return accepted

    def fast_path_clear(self, dst: str) -> bool:
        """True when frames to ``dst`` would take the fabric fast path now
        (so a pre-collected train is safe; see :meth:`send_train`)."""
        if not self.powered:
            return False
        if dst in self._routes:
            return True
        fabric = self._fabric
        return fabric is not None and fabric.fast_eligible(self.node_id, dst)

    def send_train(self, frames: list) -> bool:
        """Submit a burst of same-destination frames in one fabric call.

        Semantically identical to calling :meth:`send` per frame; on a
        clean path the fabric checks eligibility once and serializes the
        train in closed form (see :meth:`Fabric.transmit_train`).
        """
        if not self.powered:
            return False
        if self._fabric is None:
            raise RuntimeError(f"NIC {self.node_id} not attached to a fabric")
        accepted = self._fabric.transmit_train(self, frames)
        if accepted:
            self._frames_sent.value += accepted
        return accepted == len(frames)

    def deliver(self, frame: Frame) -> None:
        """Called by the fabric when a frame arrives."""
        if not self.powered:
            self._frames_dropped_rx.inc()
            return
        handler = self._kind_handlers.get(frame.kind, self.rx_handler)
        if handler is None:
            self._frames_dropped_rx.inc()
            return
        self._frames_received.value += 1
        handler(frame)

    def report_error(self, reason: str) -> None:
        """Hardware-level error indication (SAN semantics)."""
        if self.reports_errors and self.error_handler is not None and self.powered:
            self.error_handler(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.powered else "OFF"
        return f"<Nic {self.node_id} {state}>"
