"""Fabric: topology assembly and the end-to-end frame path.

The testbed topology is a star: every node (cluster servers and client
machines) hangs off a single cLAN switch.  A frame's journey is::

    src NIC --link--> switch --link--> dst NIC

with loss possible at each hop when the component has fail-stopped.  For
SAN NICs the fabric synchronously reports unreachable destinations back to
the sender's NIC (``report_error``) — the hardware-level fault visibility
that VIA translates into broken connections.

Fast path
---------

Per frame, the slow path costs three heap events (source-link arrival,
switch forwarding delay, destination-link arrival) plus three closures.
When the whole path is *clean* — both links up with no loss process, the
switch up and not in drop mode, the destination NIC powered — every hop
time is a pure function of the serializer clocks, so the fabric computes
them in closed form at submit time and schedules a single delivery event.

Eligibility is memoized per source NIC: ``Nic._routes`` maps a
destination to its ``(src_link, dst_link)`` once :meth:`Fabric._check_fast`
has found the path clean, and every fault entry point (and ``attach``)
empties every NIC's routes.  A send over a cached route is one call,
``Nic.send`` -> :meth:`Fabric._fast_send`; a send without one takes the
checked path, :meth:`Fabric.transmit`, which refills the route when the
path is clean.  At the far end :meth:`Fabric._fast_deliver` hands the
frame straight to the destination NIC's kind handler.

The arithmetic replicates the slow path operation-for-operation (same
``max``, same addition order), so timestamps are bit-identical.  Because
in-flight frames must still die mid-flight when a fault lands, every
fault-injection entry point (link fail/repair, switch fail/repair, NIC
power off/on) notifies the fabric, which *materializes* the in-flight
fast frames back into ordinary per-hop events at their precomputed hop
times: hops already virtually traversed are accounted, hops still ahead
re-enter the stock slow-path machinery and see the degraded topology
exactly as slow-path frames would.

Destination links serialize frames from many sources, so the fast path
keeps a per-link reservation queue ordered by switch-exit time; slow
frames arriving at a link with live reservations splice into that queue,
and any reservation whose start moves is recomputed and its delivery
event rescheduled.  End-of-run counters are identical in both modes
(hop counters that the slow path increments mid-flight are applied by
the fast path at delivery or materialization; counters carry no
timestamps, so only the totals are observable).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..obs.events import NET_FRAME_DROP
from ..obs.metrics import bound_counter
from ..sim.engine import Engine
from .link import CLAN_BANDWIDTH, CLAN_LATENCY, Link
from .nic import Nic
from .packet import WIRE_OVERHEAD_BYTES, Frame
from .switch import Switch


class _FastFlight:
    """An in-flight frame whose whole trajectory was precomputed."""

    __slots__ = (
        "frame",
        "wire",
        "seq",
        "arrive1",  # arrival at the switch (src serialization + latency)
        "exit",  # exit from the switch (arrive1 + forwarding delay)
        "start_d",  # destination-link serializer start
        "end_d",  # destination-link serializer done
        "t3",  # delivery at the destination NIC (end_d + latency)
        "timer",
        "dst_final",  # destination serialization can no longer move
    )

    def __init__(
        self, frame: Frame, wire: int, seq: int, arrive1: float, exit: float
    ):
        self.frame = frame
        self.wire = wire
        self.seq = seq
        self.arrive1 = arrive1
        self.exit = exit
        # start_d/end_d/t3 are assigned before first read (the ``timer is
        # not None`` guard in _resequence covers the splice path).
        self.timer = None
        self.dst_final = False


class Fabric:
    """A star topology of NICs around one switch."""

    def __init__(
        self,
        engine: Engine,
        switch: Optional[Switch] = None,
        fastpath: bool = True,
    ):
        self.engine = engine
        self._bus = engine.bus  # bound once: the per-frame path reads it
        self.switch = switch if switch is not None else Switch(engine)
        self.switch._fabric = self
        self.nics: Dict[str, Nic] = {}
        self.links: Dict[str, Link] = {}
        self.fastpath = fastpath
        self._frame_ids = itertools.count(1)
        self._submit_seq = 0
        self._flights: Dict[_FastFlight, None] = {}  # insertion-ordered set
        # Counts topology transitions (reported by snapshot_state).  The
        # eligibility memo itself lives on each source NIC as
        # ``Nic._routes`` (dst -> (src_link, dst_link)): every eligibility
        # input is either fixed at construction (fastpath, loss_fn,
        # drop_mode) or mutated only through the fault entry points, all
        # of which call _fastpath_transition and hence empty every NIC's
        # routes.
        self._topo_epoch = 0
        self._frames_delivered = bound_counter(engine, "net.fabric.frames_delivered")
        self._frames_lost = bound_counter(engine, "net.fabric.frames_lost")

    @property
    def frames_delivered(self) -> int:
        return self._frames_delivered.value

    @property
    def frames_lost(self) -> int:
        return self._frames_lost.value

    def _lose(self, frame: Frame, reason: str) -> None:
        self._frames_lost.inc()
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            spans.end_key(
                ("net", frame.frame_id), self.engine.now, "lost", reason=reason
            )
        self._bus.publish(
            NET_FRAME_DROP,
            node=frame.src,
            kind=frame.kind,
            dst=frame.dst,
            reason=reason,
        )

    def _span_open(self, spans, frame: Frame) -> None:
        """Open the transit span for a request-carrying frame.

        Callers have already loaded ``bus.spans`` and checked
        ``frame.trace_id`` — the span-disabled path never gets here.
        """
        spans.start(
            frame.trace_id,
            "net.frame",
            self.engine.now,
            node=frame.src,
            key=("net", frame.frame_id),
            kind=frame.kind,
            dst=frame.dst,
        )

    # -- assembly ------------------------------------------------------------
    def attach(
        self,
        node_id: str,
        bandwidth: float = CLAN_BANDWIDTH,
        latency: float = CLAN_LATENCY,
        reports_errors: bool = True,
        loss_fn=None,
    ) -> Nic:
        """Create a NIC + link for ``node_id`` and wire them to the switch."""
        if node_id in self.nics:
            raise ValueError(f"node {node_id!r} already attached")
        self._invalidate_routes()
        link = Link(
            self.engine,
            name=f"link-{node_id}",
            bandwidth=bandwidth,
            latency=latency,
            loss_fn=loss_fn,
        )
        link._fabric = self
        nic = Nic(self.engine, node_id, link, reports_errors=reports_errors)
        nic._fabric = self
        self.links[node_id] = link
        self.nics[node_id] = nic
        return nic

    def nic(self, node_id: str) -> Nic:
        return self.nics[node_id]

    def link(self, node_id: str) -> Link:
        return self.links[node_id]

    # -- reachability (used by SAN error reporting and by tests) -----------
    def path_up(self, src: str, dst: str, kind: str = "via-msg") -> bool:
        """True when every fail-stop component on the src→dst path carries
        frames of ``kind``."""
        src_nic = self.nics.get(src)
        dst_nic = self.nics.get(dst)
        if src_nic is None or dst_nic is None:
            return False
        return (
            src_nic.powered
            and dst_nic.powered
            and self.links[src].carries(kind)
            and self.links[dst].carries(kind)
            and self.switch.up
        )

    def fast_eligible(self, src: str, dst: str) -> bool:
        """True when a src→dst frame would take the fast path right now.

        Transports use this to decide whether pre-collecting a segment
        train is safe: on a clean path a submit can neither fail nor
        trigger a synchronous error report, so batching cannot diverge
        from per-frame submission.
        """
        src_nic = self.nics.get(src)
        if src_nic is not None and dst in src_nic._routes:
            return True
        return self._check_fast(src, dst) is not None

    def _check_fast(self, src: str, dst: str):
        """Full eligibility check.

        On success returns the route ``(src_link, dst_link)`` and files it
        in the source NIC's ``_routes``, where it stays until the next
        topology transition empties every NIC's routes.
        """
        switch = self.switch
        if not (self.fastpath and switch.up and not switch.drop_mode):
            return None
        dst_nic = self.nics.get(dst)
        if dst_nic is None or not dst_nic.powered:
            return None
        src_link = self.links.get(src)
        if (
            src_link is None
            or src_link._down_filter is not None
            or src_link.loss_fn is not None
        ):
            return None
        dst_link = self.links[dst]
        if dst_link._down_filter is not None or dst_link.loss_fn is not None:
            return None
        route = (src_link, dst_link)
        self.nics[src]._routes[dst] = route
        return route

    def _invalidate_routes(self) -> None:
        """Empty every NIC's route cache (eligibility inputs changed)."""
        self._topo_epoch += 1
        for nic in self.nics.values():
            nic._routes.clear()

    # -- data path ---------------------------------------------------------
    def transmit(self, src_nic: Nic, frame: Frame) -> bool:
        """Carry ``frame`` from ``src_nic`` toward ``frame.dst``.

        Returns True when the frame made it onto the first link.  Loss at
        later hops is reported to SAN senders via ``report_error`` but is
        invisible to LAN senders.

        This is the checked path: a NIC with a cached route to
        ``frame.dst`` calls :meth:`_fast_send` directly instead.
        """
        if self.nics.get(frame.dst) is None:
            raise KeyError(f"unknown destination {frame.dst!r}")
        route = self._check_fast(frame.src, frame.dst)
        if route is not None:
            self._fast_send(frame, route)
            return True
        frame.frame_id = next(self._frame_ids)
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            self._span_open(spans, frame)

        # SAN hardware detects unreachable peers at send time: a dead link
        # or a powered-off remote NIC yields an immediate error report.
        if src_nic.reports_errors and not self.path_up(
            frame.src, frame.dst, frame.kind
        ):
            self._lose(frame, f"unreachable:{frame.dst}")
            src_nic.report_error(f"unreachable:{frame.dst}")
            return False

        self._submit_seq = seq = self._submit_seq + 1
        wire_size = frame.size + WIRE_OVERHEAD_BYTES
        sent = self.links[frame.src].transmit(
            "a2b",
            wire_size,
            frame.kind,
            _AtSwitchCb(self, frame, wire_size, seq),
        )
        if not sent:
            self._lose(frame, f"link-down:{frame.src}")
            src_nic.report_error(f"link-down:{frame.src}")
            return False
        return True

    def transmit_train(self, src_nic: Nic, frames: List[Frame]) -> int:
        """Carry a burst of same-destination frames from ``src_nic``.

        Semantically identical to calling :meth:`transmit` per frame (and
        falls back to exactly that whenever the path is not clean); on a
        clean path the eligibility checks run once and the whole train is
        serialized in closed form, one delivery event per frame.  Returns
        the number of frames accepted onto the first link.
        """
        if not frames:
            return 0
        src = frames[0].src
        dst = frames[0].dst
        route = src_nic._routes.get(dst)
        if route is None:
            if self.nics.get(dst) is None:
                raise KeyError(f"unknown destination {dst!r}")
            route = self._check_fast(src, dst)
        if route is None:
            return sum(1 for frame in frames if self.transmit(src_nic, frame))
        # A clean path implies reachability, so no SAN pre-check is needed;
        # no simulated time passes between the per-frame submits, so the
        # path state cannot change mid-train either.
        fast_send = self._fast_send
        for frame in frames:
            fast_send(frame, route)
        return len(frames)

    # -- fast path ---------------------------------------------------------
    def _fast_send(self, frame: Frame, route: tuple) -> None:
        """Submit ``frame`` over the clean ``route``; schedule only its
        delivery.

        Numbers the frame, opens its transit span and precomputes the
        whole trajectory.  Every float operation matches the slow path
        exactly: source serialization as in ``Link.transmit``, switch
        exit as in ``Engine.call_after`` from the arrival timestamp,
        destination serialization as in ``Link.transmit`` evaluated at
        exit time.
        """
        engine = self.engine
        frame.frame_id = next(self._frame_ids)
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            self._span_open(spans, frame)
        self._submit_seq = seq = self._submit_seq + 1
        src_link, dst_link = route
        wire = frame.size + WIRE_OVERHEAD_BYTES
        busy_s = src_link._busy_until
        start_s = max(engine.now, busy_s["a2b"])
        done_s = start_s + wire / src_link.bandwidth
        busy_s["a2b"] = done_s
        src_link._frames_carried.value += 1

        arrive1 = done_s + src_link.latency
        exit_t = arrive1 + self.switch.delay
        flight = _FastFlight(frame, wire, seq, arrive1, exit_t)

        resv = dst_link._resv
        if resv:
            last = resv[-1]
            if last.exit < exit_t or (last.exit == exit_t and last.seq < seq):
                # Tail append — the overwhelmingly common case: chain
                # straight off the last reservation, same arithmetic as
                # :meth:`_resequence` would apply at this position.
                start = max(exit_t, last.end_d)
            else:
                self._reserve(dst_link, flight)
                self._flights[flight] = None
                return
        else:
            # Empty destination queue: the flight starts serializing at
            # max(exit, link clock), same arithmetic as :meth:`_resequence`.
            start = max(exit_t, dst_link._busy_until["b2a"])
        flight.start_d = start
        flight.end_d = end = start + wire / dst_link.bandwidth
        flight.t3 = t3 = end + dst_link.latency
        resv.append(flight)
        flight.timer = engine.call_at(t3, self._fast_deliver, flight, dst_link)
        self._flights[flight] = None

    def _reserve(self, dst_link: Link, flight: _FastFlight) -> None:
        """Splice ``flight`` into the destination serializer queue."""
        resv = dst_link._resv
        key = (flight.exit, flight.seq)
        pos = len(resv)
        while pos > 0:
            prev = resv[pos - 1]
            if (prev.exit, prev.seq) <= key:
                break
            pos -= 1
        resv.insert(pos, flight)
        self._resequence(dst_link, pos)

    def _resequence(self, dst_link: Link, pos: int) -> None:
        """Recompute destination serialization from queue index ``pos``.

        Reproduces, per entry, what ``Link.transmit`` would compute at the
        entry's switch-exit instant.  Stops at the first entry whose
        timing is unchanged (later entries chain off it, so they cannot
        change either).
        """
        resv = dst_link._resv
        prev_end = resv[pos - 1].end_d if pos else dst_link._busy_until["b2a"]
        engine = self.engine
        bandwidth = dst_link.bandwidth
        latency = dst_link.latency
        for i in range(pos, len(resv)):
            fl = resv[i]
            start = max(fl.exit, prev_end)
            end = start + fl.wire / bandwidth
            if fl.timer is not None and start == fl.start_d and end == fl.end_d:
                return
            fl.start_d = start
            fl.end_d = end
            fl.t3 = t3 = end + latency
            if fl.timer is not None:
                fl.timer.cancel()
            fl.timer = engine.call_at(t3, self._fast_deliver, fl, dst_link)
            prev_end = end

    def _fast_deliver(self, flight: _FastFlight, dst_link: Link) -> None:
        """The single fast-path event: the frame reaches its NIC.

        Hop counters the slow path would have incremented mid-flight are
        applied here (totals are what's observable; see module docstring).
        The hand-off to the NIC's handler is :meth:`_deliver` and
        :meth:`Nic.deliver` inlined, with the same checks, counters and
        order.
        """
        flight.timer = None
        del self._flights[flight]
        resv = dst_link._resv
        if resv and resv[0] is flight:
            del resv[0]
        busy = dst_link._busy_until
        if flight.end_d > busy["b2a"]:
            busy["b2a"] = flight.end_d
        self.switch.frames_forwarded += 1
        dst_link._frames_carried.value += 1
        frame = flight.frame
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            # The precomputed hop times are bit-identical to what the
            # slow path stamps at its per-hop events, so fast and slow
            # runs export the same annotations.
            spans.note(
                spans.find(("net", frame.frame_id)),
                arrive_switch=flight.arrive1,
                exit_switch=flight.exit,
            )
        dst_nic = self.nics[frame.dst]
        if not dst_nic.powered:
            self._deliver(frame)  # loses the frame and reports it
            return
        self._frames_delivered.value += 1
        if spans is not None and frame.trace_id:
            spans.end_key(("net", frame.frame_id), self.engine.now)
        handler = dst_nic._kind_handlers.get(frame.kind, dst_nic.rx_handler)
        if handler is None:
            dst_nic._frames_dropped_rx.inc()
            return
        dst_nic._frames_received.value += 1
        handler(frame)

    # -- fast/slow interleaving on a shared destination link ----------------
    def _interleave_slow(self, dst_link: Link, seq: int) -> None:
        """A slow frame is about to serialize on a link with reservations.

        Reservations that exited the switch before this frame (or at the
        same instant with an earlier submission) keep their place: fold
        their serializer time into the link clock so the slow frame queues
        behind them.  Reservations behind the slow frame are resequenced
        by the caller once the slow frame has claimed its slot.
        """
        now = self.engine.now
        resv = dst_link._resv
        i = 0
        for fl in resv:
            if fl.exit < now or (fl.exit == now and fl.seq < seq):
                i += 1
            else:
                break
        if i:
            matured_end = resv[i - 1].end_d
            busy = dst_link._busy_until
            if matured_end > busy["b2a"]:
                busy["b2a"] = matured_end
            for fl in resv[:i]:
                fl.dst_final = True
            del resv[:i]

    # -- materialization on topology transitions ----------------------------
    def _fastpath_transition(self) -> None:
        """A fail-stop state changed somewhere: re-expand in-flight fast
        frames into ordinary per-hop events.

        Hops whose precomputed time is in the past happened while the path
        was still clean — account them.  Hops at or after the current
        instant re-enter the stock slow-path machinery, which applies the
        degraded topology checks with the exact slow-path semantics.
        """
        self._invalidate_routes()
        if not self._flights:
            return
        now = self.engine.now
        flights = sorted(
            self._flights,
            key=lambda fl: (
                fl.t3 if (fl.dst_final or fl.exit < now)
                else (fl.arrive1 if fl.arrive1 >= now else fl.exit),
                fl.seq,
            ),
        )
        self._flights.clear()
        for link in self.links.values():
            link._resv.clear()
        switch = self.switch
        spans = self._bus.spans
        for fl in flights:
            if fl.timer is not None:
                fl.timer.cancel()
                fl.timer = None
            frame = fl.frame
            src_link = self.links[frame.src]
            if fl.dst_final or fl.exit < now:
                # Past the switch and the destination serializer: only the
                # wire flight to the NIC remains.
                if spans is not None and frame.trace_id:
                    # Hops already virtually traversed: stamp the same
                    # values the slow-path events would have.
                    spans.note(
                        spans.find(("net", frame.frame_id)),
                        arrive_switch=fl.arrive1,
                        exit_switch=fl.exit,
                    )
                switch.frames_forwarded += 1
                dst_link = self.links[frame.dst]
                dst_link._frames_carried.inc()
                busy = dst_link._busy_until
                if fl.end_d > busy["b2a"]:
                    busy["b2a"] = fl.end_d
                self.engine.call_at(
                    fl.t3,
                    dst_link._arrive,
                    frame.kind,
                    _DeliverCb(self, frame),
                )
            elif fl.arrive1 >= now:
                # Not yet at the switch: re-enter at the source-link
                # arrival, stock machinery from there.
                self.engine.call_at(
                    fl.arrive1,
                    src_link._arrive,
                    frame.kind,
                    _AtSwitchCb(self, frame, fl.wire, fl.seq),
                )
            else:
                # Inside the switch: forwarding already happened.
                if spans is not None and frame.trace_id:
                    spans.note(
                        spans.find(("net", frame.frame_id)),
                        arrive_switch=fl.arrive1,
                    )
                switch.frames_forwarded += 1
                self.engine.call_at(
                    fl.exit,
                    self._switch_exit,
                    frame,
                    fl.wire,
                    fl.seq,
                )

    def _switch_exit(self, frame: Frame, wire_size: int, seq: int) -> None:
        """Materialized continuation at the switch-exit instant
        (mirrors :meth:`Switch._deliver`)."""
        if not self.switch.up:
            self.switch.frames_dropped += 1
            return
        self._at_dst_link(frame, wire_size, seq)

    # -- slow path ---------------------------------------------------------
    def _at_switch(self, frame: Frame, wire_size: int, seq: int = 0) -> None:
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            spans.note(
                spans.find(("net", frame.frame_id)),
                arrive_switch=self.engine.now,
            )
        forwarded = self.switch.forward(
            frame.dst, _AtDstLinkCb(self, frame, wire_size, seq)
        )
        if not forwarded:
            self._lose(frame, "switch-down")
            self._report_to_sender(frame, "switch-down")

    def _at_dst_link(self, frame: Frame, wire_size: int, seq: int = 0) -> None:
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            spans.note(
                spans.find(("net", frame.frame_id)),
                exit_switch=self.engine.now,
            )
        dst_link = self.links[frame.dst]
        if dst_link._resv:
            self._interleave_slow(dst_link, seq)
        sent = dst_link.transmit(
            "b2a", wire_size, frame.kind, _DeliverCb(self, frame)
        )
        if dst_link._resv:
            self._resequence(dst_link, 0)
        if not sent:
            self._lose(frame, f"link-down:{frame.dst}")
            self._report_to_sender(frame, f"link-down:{frame.dst}")

    def _deliver(self, frame: Frame) -> None:
        dst_nic = self.nics[frame.dst]
        if not dst_nic.powered:
            self._lose(frame, f"node-down:{frame.dst}")
            self._report_to_sender(frame, f"node-down:{frame.dst}")
            return
        self._frames_delivered.value += 1
        spans = self._bus.spans
        if spans is not None and frame.trace_id:
            # Close before handing the frame up so the receiver's spans
            # nest under the request, not under this transit.
            spans.end_key(("net", frame.frame_id), self.engine.now)
        dst_nic.deliver(frame)

    def _report_to_sender(self, frame: Frame, reason: str) -> None:
        src_nic = self.nics.get(frame.src)
        if src_nic is not None:
            src_nic.report_error(reason)

    # -- snapshot support (see repro.sim.snapshot) --------------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable).

        Covers the frame/submit counters and every serializer clock, so
        a restored fabric whose next frame would be numbered or timed
        differently yields a different digest.  The NICs' route caches
        are deliberately absent: they are a pure memo over state counted
        here.
        """
        return {
            "submit_seq": self._submit_seq,
            "topo_epoch": self._topo_epoch,
            "flights": len(self._flights),
            "frames_delivered": self._frames_delivered.value,
            "frames_lost": self._frames_lost.value,
            "switch": {
                "up": self.switch.up,
                "forwarded": self.switch.frames_forwarded,
                "dropped": self.switch.frames_dropped,
            },
            "links": {
                name: link.snapshot_state() for name, link in sorted(self.links.items())
            },
        }


class _DeliverCb:
    """Materialized final-hop continuation (avoids a closure per frame)."""

    __slots__ = ("fabric", "frame")

    def __init__(self, fabric: Fabric, frame: Frame):
        self.fabric = fabric
        self.frame = frame

    def __call__(self) -> None:
        self.fabric._deliver(self.frame)


class _AtSwitchCb:
    """Switch-arrival continuation (avoids a closure per slow frame)."""

    __slots__ = ("fabric", "frame", "wire", "seq")

    def __init__(self, fabric: Fabric, frame: Frame, wire: int, seq: int):
        self.fabric = fabric
        self.frame = frame
        self.wire = wire
        self.seq = seq

    def __call__(self) -> None:
        self.fabric._at_switch(self.frame, self.wire, self.seq)


class _AtDstLinkCb:
    """Switch-forwarding continuation (avoids a closure per slow frame)."""

    __slots__ = ("fabric", "frame", "wire", "seq")

    def __init__(self, fabric: Fabric, frame: Frame, wire: int, seq: int):
        self.fabric = fabric
        self.frame = frame
        self.wire = wire
        self.seq = seq

    def __call__(self) -> None:
        self.fabric._at_dst_link(self.frame, self.wire, self.seq)
