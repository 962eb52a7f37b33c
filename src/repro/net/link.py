"""Point-to-point links with bandwidth, latency, and fail-stop faults.

A link connects one NIC to one switch port.  It serializes frames at its
bandwidth (a busy-until clock, not a queue of events) and can be taken
down/up by the fault injector.  Frames in flight or submitted while the
link is down are lost — exactly the failure the transports must then
detect (TCP by retransmission timeout, VIA by hardware error report).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..obs.events import NET_FRAME_DROP
from ..obs.metrics import bound_counter
from ..sim.engine import Engine

#: 1 Gb/s cLAN expressed in bytes/second.
CLAN_BANDWIDTH = 125_000_000
#: One-way cLAN hop latency in seconds (sub-10us hardware).
CLAN_LATENCY = 5e-6


def intra_cluster_kind(kind: str) -> bool:
    """True for intra-cluster traffic (everything but client HTTP).

    Mendosus differentiates traffic classes when injecting network faults
    so "the clients are never disturbed by faults injected into the
    intra-cluster communication" — a link fault with intra scope drops
    transport frames but carries client HTTP.
    """
    return not kind.startswith("http")


def drop_all_kinds(kind: str) -> bool:
    """Down-filter for a total fail-stop: no traffic class is carried.

    A module-level function (not a lambda) so that a failed link pickles
    by reference in simulation snapshots.
    """
    return True


class Link:
    """A unidirectionally-modeled full-duplex link.

    The serializer clock is tracked per direction so that simultaneous
    send/receive do not contend (full duplex), matching switched
    point-to-point fabrics.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        bandwidth: float = CLAN_BANDWIDTH,
        latency: float = CLAN_LATENCY,
        loss_fn: Optional[Callable[[], bool]] = None,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.engine = engine
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.loss_fn = loss_fn
        self._down_filter: Optional[Callable[[str], bool]] = None
        self._busy_until = {"a2b": 0.0, "b2a": 0.0}
        self._fabric = None  # set by Fabric.attach
        self._resv: list = []  # fast-path b2a reservations (see Fabric)
        self._frames_carried = bound_counter(
            engine, "net.link.frames_carried", link=name
        )
        self._frames_lost = bound_counter(engine, "net.link.frames_lost", link=name)

    @property
    def frames_carried(self) -> int:
        return self._frames_carried.value

    @property
    def frames_lost(self) -> int:
        return self._frames_lost.value

    def _lose(self, kind: str, reason: str) -> None:
        self._frames_lost.inc()
        self.engine.bus.publish(
            NET_FRAME_DROP, link=self.name, kind=kind, reason=reason
        )

    # -- fault control ---------------------------------------------------
    @property
    def up(self) -> bool:
        """True when the link carries at least some traffic class."""
        return self._down_filter is None

    def fail(self) -> None:
        """Fail-stop: the link carries nothing until :meth:`repair`."""
        self._notify_fabric()
        self._down_filter = drop_all_kinds

    def fail_for(self, predicate: Callable[[str], bool]) -> None:
        """Fail-stop for frame kinds matching ``predicate`` only.

        Used with :func:`intra_cluster_kind` to emulate Mendosus's
        traffic-class-scoped network faults.
        """
        self._notify_fabric()
        self._down_filter = predicate

    def repair(self) -> None:
        self._notify_fabric()
        self._down_filter = None

    def _notify_fabric(self) -> None:
        # Fail-stop transitions must be visible to frames already in
        # flight on the fast path: the fabric re-expands them into
        # per-hop events before the state changes.
        if self._fabric is not None:
            self._fabric._fastpath_transition()

    def carries(self, kind: str) -> bool:
        return self._down_filter is None or not self._down_filter(kind)

    # -- data path ---------------------------------------------------------
    def transmit(
        self, direction: str, size: int, kind: str, deliver: Callable[[], None]
    ) -> bool:
        """Serialize ``size`` bytes and schedule ``deliver`` at arrival.

        Returns False (frame lost) when the link is down for this traffic
        class or the loss process fires.  The caller decides what loss
        means (TCP: wait for RTO; VIA: hardware error).
        """
        if not self.carries(kind):
            self._lose(kind, "link-down")
            return False
        if self.loss_fn is not None and self.loss_fn():
            self._lose(kind, "loss-process")
            return False
        engine = self.engine
        start = max(engine.now, self._busy_until[direction])
        done = start + size / self.bandwidth
        self._busy_until[direction] = done
        self._frames_carried.inc()
        engine.call_at(done + self.latency, self._arrive, kind, deliver)
        return True

    def _arrive(self, kind: str, deliver: Callable[[], None]) -> None:
        # A frame already on the wire when the link fails is lost too:
        # fail-stop kills in-flight data.
        if not self.carries(kind):
            self._lose(kind, "link-down-in-flight")
            return
        deliver()

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see repro.sim.snapshot)."""
        return {
            "up": self.up,
            "busy": dict(self._busy_until),
            "reservations": len(self._resv),
            "carried": self._frames_carried.value,
            "lost": self._frames_lost.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {state}>"
