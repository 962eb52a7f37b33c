"""The per-node VIA provider (VIPL over the cLAN NIC).

Implements the fail-stop error model the paper credits for VIA's
availability edge:

* the SAN NIC reports unreachable peers at the hardware level; the
  provider immediately breaks the affected connections ("a node assumes
  that another node has failed if the VIA connection between them is
  broken") — detection is near-instantaneous, no timeouts involved;
* bad descriptor parameters surface as completion errors, which PRESS
  treats as fatal; for remote-memory-write channels the error is reported
  at **both** endpoints, taking down two processes per injected fault;
* all channel resources are pre-allocated and **pinned** at connection
  setup through the node's pinnable-memory accounting, so the data path
  is immune to kernel-memory allocation faults, while dynamic pinning
  users (VIA-PRESS-5's zero-copy cache) remain exposed to pin faults.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...net.nic import Nic
from ...net.packet import Frame
from ...obs.events import VIA_CHANNEL_BROKEN, VIA_DESCRIPTOR_ERROR
from ...obs.metrics import bound_counter
from ...osim.node import Node
from ...sim.engine import Engine
from ...sim.ids import IdSource
from ..base import (
    SENT,
    CorruptionKind,
    FatalTransportError,
    Message,
    Transport,
)
from ..costs import VIA0_COSTS, TransportCosts
from .channel import ViaChannel
from .params import DEFAULT_VIA_PARAMS, ViaParams

_NOTIFY_COST = 3e-6

_gen_counter = IdSource("transports.via.gen_counter")


def _next_gen() -> int:
    return next(_gen_counter)


class ViaRegistrationError(Exception):
    """Memory registration (pinning) failed at channel setup."""


class ViaTransport(Transport):
    """User-level VIA endpoint for one cluster node."""

    preserves_boundaries = True

    def __init__(
        self,
        engine: Engine,
        node: Node,
        costs: TransportCosts = VIA0_COSTS,
        params: ViaParams = DEFAULT_VIA_PARAMS,
        remote_writes: bool = False,
    ):
        super().__init__(engine, node.node_id)
        self.node = node
        self.nic: Nic = node.nic
        self.costs = costs
        self.params = params
        self.remote_writes = remote_writes
        self.data_frame_kind = "rdma-write" if remote_writes else "via-msg"
        self.channels: Dict[str, ViaChannel] = {}
        self.on_accept: Optional[Callable[[str], None]] = None
        self.on_datagram: Optional[Callable[[str, Message], None]] = None
        self._descriptor_errors = bound_counter(
            engine, "transport.via.descriptor_errors", node=node.node_id
        )

        # The NIC routes by frame kind already — register each handler
        # directly rather than re-dispatching through an if-chain (data
        # and credit frames dominate the event stream).
        for kind, handler in (
            ("via-msg", self._on_data),
            ("rdma-write", self._on_data),
            ("via-credit", self._on_credit),
            ("via-connect", self._on_connect_request),
            ("via-accept", self._on_accept_frame),
            ("via-reject", self._on_reject),
            ("via-close", self._on_close),
            ("via-dgram", self._on_dgram),
            ("via-remote-error", self._on_remote_error),
        ):
            self.nic.register(kind, handler)
        self.nic.on_error(self._on_nic_error)
        node.process.on_death.append(self._on_process_death)
        node.process.on_cont.append(self._on_process_cont)

    @property
    def descriptor_errors(self) -> int:
        return self._descriptor_errors.value

    # ------------------------------------------------------------------
    # CPU / resource plumbing
    # ------------------------------------------------------------------
    def _charge_cpu(self, cost: float) -> None:
        self.node.cpu.charge(cost)

    def _channel_pool_bytes(self) -> int:
        p = self.params
        return p.credits * p.buffer_bytes + p.send_ring_bytes

    # ------------------------------------------------------------------
    # Connection management (VipConnectRequest / Accept)
    # ------------------------------------------------------------------
    def connect(
        self, peer: str, on_result: Optional[Callable[[bool], None]] = None
    ) -> ViaChannel:
        existing = self.channels.get(peer)
        if existing is not None and not existing.broken:
            if on_result is not None:
                self.engine.call_soon(on_result, True)
            return existing
        try:
            channel = self._make_channel(peer, _next_gen())
        except ViaRegistrationError:
            # Out of pinnable memory (e.g. a pin fault is active while a
            # restarted node tries to rebuild its VIs): VipCreateVi fails
            # and the connection attempt is reported as unsuccessful.
            failed = ViaChannel(self, peer, _next_gen(), self.params)
            failed.mark_broken("registration-failed")
            if on_result is not None:
                self.engine.call_soon(on_result, False)
            return failed
        channel.connect_cb = on_result
        self.channels[peer] = channel
        self._connect_attempt(channel, 0)
        return channel

    def _make_channel(self, peer: str, gen: int) -> ViaChannel:
        """Create a VI and register (pin) its buffer pool.

        Registration failure is a *setup-time* error: the paper's pin
        fault only bites setup/dynamic pinning, never the data path.
        """
        channel = ViaChannel(self, peer, gen, self.params)
        pool = self._channel_pool_bytes()
        if not self.node.pinnable.pin(pool):
            raise ViaRegistrationError(
                f"{self.node_id}: cannot pin {pool} bytes for VI to {peer}"
            )
        channel.pinned_bytes = pool
        return channel

    def _connect_attempt(self, channel: ViaChannel, attempt: int) -> None:
        if channel.broken or channel.established:
            return
        if self.channels.get(channel.peer) is not channel:
            return
        if attempt >= self.params.connect_max_retries:
            self._channel_broken(channel, "connect-timeout", notify=False)
            self._finish_connect(channel, False)
            return
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=channel.peer,
                size=self.params.ctrl_frame_bytes,
                kind="via-connect",
                payload=(channel.gen, None),
            )
        )
        self.engine.call_after(
            self.params.connect_retry_interval,
            self._connect_attempt,
            channel,
            attempt + 1,
        )

    def _finish_connect(self, channel: ViaChannel, ok: bool) -> None:
        cb, channel.connect_cb = channel.connect_cb, None
        if cb is not None:
            cb(ok)

    def close_channel(self, peer: str) -> None:
        channel = self.channels.pop(peer, None)
        if channel is None:
            return
        self._unpin(channel)
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=peer,
                size=self.params.ctrl_frame_bytes,
                kind="via-close",
                payload=(channel.gen, None),
            )
        )
        channel.mark_broken("closed-locally")

    def shutdown(self) -> None:
        for peer in list(self.channels):
            self.close_channel(peer)

    def _unpin(self, channel: ViaChannel) -> None:
        if channel.pinned_bytes:
            self.node.pinnable.unpin(channel.pinned_bytes)
            channel.pinned_bytes = 0

    # ------------------------------------------------------------------
    # Process / machine death
    # ------------------------------------------------------------------
    def _on_process_death(self, reason: str) -> None:
        for peer, channel in list(self.channels.items()):
            self._unpin(channel)
            if self.node.up:
                # The provider tears down VIs; peers see broken connections
                # immediately (hardware disconnect notification).
                self.nic.send(
                    Frame(
                        src=self.node_id,
                        dst=peer,
                        size=self.params.ctrl_frame_bytes,
                        kind="via-close",
                        payload=(channel.gen, None),
                    )
                )
            channel.mark_broken("process-died")
        self.channels.clear()

    def _on_process_cont(self) -> None:
        """SIGCONT: the receive thread drains what piled up."""
        for channel in list(self.channels.values()):
            channel.drain_frozen()

    # ------------------------------------------------------------------
    # Hardware error reports (the SAN fault model)
    # ------------------------------------------------------------------
    def _on_nic_error(self, reason: str) -> None:
        """Fabric problem: break the affected connection(s), fail-stop."""
        if ":" in reason:
            tag, _, who = reason.partition(":")
        else:
            tag, who = reason, ""
        if tag in ("unreachable", "node-down", "link-down") and who not in (
            "",
            self.node_id,
        ):
            channel = self.channels.get(who)
            if channel is not None:
                self._channel_broken(channel, f"hw-{tag}")
        else:
            # Our own link or the switch died: every connection is gone.
            for channel in list(self.channels.values()):
                self._channel_broken(channel, f"hw-{tag}")

    # ------------------------------------------------------------------
    # Datagrams (join protocol; VIA uses unconnected sends for discovery)
    # ------------------------------------------------------------------
    def send_datagram(self, peer: str, msg: Message) -> None:
        self._charge_cpu(self.costs.send_cost(msg))
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=peer,
                size=msg.size,
                kind="via-dgram",
                payload=msg,
            )
        )

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _on_data(self, frame: Frame) -> None:
        gen, msg = frame.payload
        channel = self.channels.get(frame.src)
        if channel is not None and channel.gen == gen and not channel.broken:
            channel.handle_message(msg)

    def _on_credit(self, frame: Frame) -> None:
        gen, n = frame.payload
        channel = self.channels.get(frame.src)
        if channel is not None and channel.gen == gen and not channel.broken:
            channel.handle_credits(n)

    def _on_connect_request(self, frame: Frame) -> None:
        gen, _ = frame.payload
        if not self.node.process.running:
            self.nic.send(
                Frame(
                    src=self.node_id,
                    dst=frame.src,
                    size=self.params.ctrl_frame_bytes,
                    kind="via-reject",
                    payload=(gen, None),
                )
            )
            return
        old = self.channels.get(frame.src)
        if old is not None:
            if old.gen == gen:
                self._send_accept(frame.src, gen)
                return  # duplicate connect request
            self._unpin(old)
            old.mark_broken("superseded")
        try:
            channel = self._make_channel(frame.src, gen)
        except ViaRegistrationError:
            self.nic.send(
                Frame(
                    src=self.node_id,
                    dst=frame.src,
                    size=self.params.ctrl_frame_bytes,
                    kind="via-reject",
                    payload=(gen, None),
                )
            )
            return
        channel.established = True
        self.channels[frame.src] = channel
        self._send_accept(frame.src, gen)
        if self.on_accept is not None:
            self.node.cpu.submit(_NOTIFY_COST, self._notify_accept, frame.src)

    def _notify_accept(self, peer: str) -> None:
        if self.on_accept is not None:
            self.on_accept(peer)

    def _send_accept(self, peer: str, gen: int) -> None:
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=peer,
                size=self.params.ctrl_frame_bytes,
                kind="via-accept",
                payload=(gen, None),
            )
        )

    def _on_accept_frame(self, frame: Frame) -> None:
        gen, _ = frame.payload
        channel = self.channels.get(frame.src)
        if channel is None or channel.gen != gen or channel.broken:
            return
        if not channel.established:
            channel.established = True
            channel._drain()
            self._finish_connect(channel, True)

    def _on_reject(self, frame: Frame) -> None:
        gen, _ = frame.payload
        channel = self.channels.get(frame.src)
        if channel is not None and channel.gen == gen and not channel.established:
            del self.channels[frame.src]
            self._unpin(channel)
            channel.mark_broken("connection-refused")
            self._finish_connect(channel, False)

    def _on_close(self, frame: Frame) -> None:
        gen, _ = frame.payload
        channel = self.channels.get(frame.src)
        if channel is not None and channel.gen == gen:
            self._channel_broken(channel, "peer-closed")

    def _on_dgram(self, frame: Frame) -> None:
        # Fielded by the dedicated receive thread; see TcpTransport._on_dgram.
        if not self.node.process.running:
            return
        if self.on_datagram is not None:
            self.on_datagram(frame.src, frame.payload)

    # ------------------------------------------------------------------
    # Descriptor errors (bad-parameter faults)
    # ------------------------------------------------------------------
    def _handle_corrupted_post(self, channel: ViaChannel, msg: Message):
        """Stock VIA: accept the post, report the error asynchronously."""
        self._descriptor_error(channel, msg)
        return SENT

    def _descriptor_error(self, channel: ViaChannel, msg: Message) -> None:
        """Route a corrupted descriptor to the right endpoint(s).

        Single-descriptor channels (VIA-PRESS-0): the NIC validates at
        transfer time and exactly one side sees the error status — the
        sender for a bad *size* (descriptor length check), the receiver
        for a bad *pointer* (the transfer lands wrong).  Remote-write
        channels: the error is reported on **both** nodes involved.
        """
        self._descriptor_errors.inc()
        kind = msg.corruption
        self.engine.bus.publish(
            VIA_DESCRIPTOR_ERROR,
            node=self.node_id,
            peer=channel.peer,
            corruption=kind.value,
        )
        error_at_sender = self.remote_writes or kind in (
            CorruptionKind.NULL_POINTER,
            CorruptionKind.OFF_BY_N_SIZE,
        )
        error_at_receiver = self.remote_writes or kind is CorruptionKind.OFF_BY_N_POINTER

        if error_at_sender:
            self.engine.call_after(
                self.params.completion_delay,
                self._local_fatal,
                f"descriptor-error:{kind.value}",
            )
        if error_at_receiver and not channel.broken:
            self.nic.send(
                Frame(
                    src=self.node_id,
                    dst=channel.peer,
                    size=self.params.ctrl_frame_bytes,
                    kind="via-remote-error",
                    payload=(channel.gen, kind.value),
                )
            )

    def _on_remote_error(self, frame: Frame) -> None:
        gen, kind_value = frame.payload
        channel = self.channels.get(frame.src)
        if channel is not None and channel.gen == gen:
            self._local_fatal(f"remote-descriptor-error:{kind_value}")

    def _local_fatal(self, reason: str) -> None:
        self.node.cpu.submit(_NOTIFY_COST, self._fatal_up, reason)

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------
    def _channel_broken(
        self, channel: ViaChannel, reason: str, notify: bool = True
    ) -> None:
        if self.channels.get(channel.peer) is channel:
            del self.channels[channel.peer]
        self._unpin(channel)
        already = channel.broken
        channel.mark_broken(reason)
        if not already:
            self.engine.bus.publish(
                VIA_CHANNEL_BROKEN,
                node=self.node_id,
                peer=channel.peer,
                reason=reason,
            )
        if notify and not already:
            self.node.cpu.submit(_NOTIFY_COST, self._break_up, channel.peer, reason)

    # -- cost model ----------------------------------------------------------
    def send_cost(self, msg: Message) -> float:
        return self.costs.send_cost(msg)

    def recv_cost(self, msg: Message) -> float:
        return self.costs.recv_cost(msg)
