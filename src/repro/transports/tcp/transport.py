"""The per-node kernel TCP stack.

Owns the connection endpoints, dispatches frames, implements connection
setup/teardown, and — critically for the paper — implements the *kernel's*
behaviour that outlives the application process:

* when the **process** dies but the machine is up, the kernel closes its
  sockets, so peers learn of the crash almost immediately (RST/FIN);
* when the **machine** crashes, nothing is sent; peers keep retransmitting
  into the void, and only discover the failure when the rebooted kernel
  answers a stale segment with an RST — "the other nodes do not detect the
  reboot until a little while later";
* a **hung** process keeps its connections alive (the kernel still ACKs),
  so TCP-PRESS correctly sees no fault during a hang while everything
  stalls on full buffers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...net.nic import Nic
from ...net.packet import Frame
from ...obs.events import TCP_ENDPOINT_BROKEN, TCP_FRAMING_ERROR
from ...obs.metrics import bound_counter
from ...osim.node import Node
from ...sim.engine import Engine
from ..base import Message, Transport
from ..costs import TCP_COSTS, TransportCosts
from .connection import (
    AckPayload,
    CtrlPayload,
    SegPayload,
    StreamRecord,
    TcpEndpoint,
    next_generation,
)
from .params import DEFAULT_TCP_PARAMS, TcpParams

#: CPU cost of fielding an application-level datagram (heartbeats, joins).
_DGRAM_BYTES = 64
#: CPU cost charged for error-path notifications delivered to the app.
_NOTIFY_COST = 5e-6


class TcpTransport(Transport):
    """Kernel TCP + PRESS framing for one cluster node."""

    preserves_boundaries = False

    def __init__(
        self,
        engine: Engine,
        node: Node,
        costs: TransportCosts = TCP_COSTS,
        params: TcpParams = DEFAULT_TCP_PARAMS,
    ):
        super().__init__(engine, node.node_id)
        self.node = node
        self.nic: Nic = node.nic
        self.costs = costs
        self.params = params
        self.endpoints: Dict[str, TcpEndpoint] = {}
        self.on_accept: Optional[Callable[[str], None]] = None
        self.on_datagram: Optional[Callable[[str, Message], None]] = None
        self._framing_errors = bound_counter(
            engine, "transport.tcp.framing_errors", node=node.node_id
        )

        # The NIC routes by frame kind already — register each handler
        # directly rather than re-dispatching through an if-chain (data
        # segments and ACKs dominate the event stream).
        for kind, handler in (
            ("tcp-seg", self._on_segment),
            ("tcp-ack", self._on_ack),
            ("tcp-syn", self._on_syn),
            ("tcp-synack", self._on_synack),
            ("tcp-rst", self._on_rst),
            ("tcp-close", self._on_close),
            ("tcp-dgram", self._on_dgram),
        ):
            self.nic.register(kind, handler)
        node.process.on_death.append(self._on_process_death)
        node.process.on_cont.append(self._on_process_cont)

    @property
    def framing_errors(self) -> int:
        return self._framing_errors.value

    def _record_framing_error(self, ep: TcpEndpoint) -> None:
        self._framing_errors.inc()
        self.engine.bus.publish(TCP_FRAMING_ERROR, node=self.node_id, peer=ep.peer)

    # ------------------------------------------------------------------
    # Kernel memory access (re-read per call: a reboot replaces the object)
    # ------------------------------------------------------------------
    @property
    def kernel_memory(self):
        return self.node.kernel_memory

    def _charge_cpu(self, cost: float) -> None:
        self.node.cpu.charge(cost)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(
        self, peer: str, on_result: Optional[Callable[[bool], None]] = None
    ) -> TcpEndpoint:
        """Open a connection to ``peer``; SYN retries then success/failure."""
        existing = self.endpoints.get(peer)
        if existing is not None and not existing.broken:
            if on_result is not None:
                self.engine.call_soon(on_result, True)
            return existing
        ep = TcpEndpoint(self, peer, next_generation(), self.params)
        ep.connect_cb = on_result
        self.endpoints[peer] = ep
        self._syn_attempt(ep, 0)
        return ep

    def _finish_connect(self, ep: TcpEndpoint, ok: bool) -> None:
        cb, ep.connect_cb = ep.connect_cb, None
        if cb is not None:
            cb(ok)

    def _syn_attempt(self, ep: TcpEndpoint, attempt: int) -> None:
        if ep.broken or ep.established:
            return
        if self.endpoints.get(ep.peer) is not ep:
            return  # superseded
        if attempt >= self.params.syn_max_retries:
            self._endpoint_broken(ep, "connect-timeout", notify=False)
            self._finish_connect(ep, False)
            return
        if self.kernel_memory.probe(64):
            self.nic.send(
                Frame(
                    src=self.node_id,
                    dst=ep.peer,
                    size=64,
                    kind="tcp-syn",
                    payload=CtrlPayload(gen=ep.gen),
                )
            )
        self.engine.call_after(
            self.params.syn_retry_interval, self._syn_attempt, ep, attempt + 1
        )

    def channel(self, peer: str) -> Optional[TcpEndpoint]:
        return self.endpoints.get(peer)

    def close_channel(self, peer: str) -> None:
        """Application-initiated close (graceful, FIN-like)."""
        ep = self.endpoints.pop(peer, None)
        if ep is None:
            return
        self._send_ctrl(peer, "tcp-close", ep.gen)
        ep.mark_broken("closed-locally")

    def shutdown(self) -> None:
        """Tear down every connection (used by operator resets)."""
        for peer in list(self.endpoints):
            self.close_channel(peer)

    # ------------------------------------------------------------------
    # Kernel reactions to process/machine death
    # ------------------------------------------------------------------
    def _on_process_death(self, reason: str) -> None:
        if self.node.up:
            # Kernel survives: close sockets, peers get FIN/RST quickly.
            for peer, ep in list(self.endpoints.items()):
                self._send_ctrl(peer, "tcp-close", ep.gen)
                ep.mark_broken("process-died")
        else:
            # Machine crash: connection state evaporates silently.
            for ep in self.endpoints.values():
                ep.mark_broken("node-crashed")
        self.endpoints.clear()

    def _send_ctrl(self, peer: str, kind: str, gen: int) -> None:
        if not self.kernel_memory.probe(64):
            return
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=peer,
                size=64,
                kind=kind,
                payload=CtrlPayload(gen=gen),
            )
        )

    # ------------------------------------------------------------------
    # Datagrams (heartbeats, join protocol)
    # ------------------------------------------------------------------
    def send_datagram(self, peer: str, msg: Message) -> None:
        self._charge_cpu(self.costs.send_cost(msg))
        if not self.kernel_memory.probe(msg.size + _DGRAM_BYTES):
            return  # no skbuf: datagram silently dropped
        self.nic.send(
            Frame(
                src=self.node_id,
                dst=peer,
                size=msg.size + _DGRAM_BYTES,
                kind="tcp-dgram",
                payload=msg,
            )
        )

    # ------------------------------------------------------------------
    # Frame dispatch (handlers registered per kind on the NIC)
    # ------------------------------------------------------------------
    def _on_segment(self, frame: Frame) -> None:
        payload: SegPayload = frame.payload
        ep = self.endpoints.get(frame.src)
        if ep is None or ep.gen != payload.gen or ep.broken:
            # No such connection here (e.g. we rebooted): answer RST.
            self._send_ctrl(frame.src, "tcp-rst", payload.gen)
            return
        ep.handle_segment(payload)

    def _on_ack(self, frame: Frame) -> None:
        payload: AckPayload = frame.payload
        ep = self.endpoints.get(frame.src)
        if ep is not None and ep.gen == payload.gen and not ep.broken:
            ep.handle_ack(payload)

    def _on_syn(self, frame: Frame) -> None:
        gen = frame.payload.gen
        if not self.node.process.alive:
            self._send_ctrl(frame.src, "tcp-rst", gen)
            return
        old = self.endpoints.get(frame.src)
        if old is not None:
            if old.gen == gen:
                self._send_ctrl(frame.src, "tcp-synack", gen)
                return  # duplicate SYN
            old.mark_broken("superseded")
        ep = TcpEndpoint(self, frame.src, gen, self.params)
        ep.established = True
        self.endpoints[frame.src] = ep
        self._send_ctrl(frame.src, "tcp-synack", gen)
        if self.on_accept is not None:
            self.node.cpu.submit(_NOTIFY_COST, self._notify_accept, frame.src)

    def _notify_accept(self, peer: str) -> None:
        if self.on_accept is not None:
            self.on_accept(peer)

    def _on_synack(self, frame: Frame) -> None:
        ep = self.endpoints.get(frame.src)
        if ep is None or ep.gen != frame.payload.gen or ep.broken:
            return
        if not ep.established:
            ep.established = True
            ep._pump()
            self._finish_connect(ep, True)

    def _on_rst(self, frame: Frame) -> None:
        ep = self.endpoints.get(frame.src)
        if ep is not None and ep.gen == frame.payload.gen:
            if not ep.established:
                del self.endpoints[frame.src]
                ep.mark_broken("connection-refused")
                self._finish_connect(ep, False)
                return
            self._endpoint_broken(ep, "connection-reset")

    def _on_close(self, frame: Frame) -> None:
        ep = self.endpoints.get(frame.src)
        if ep is not None and ep.gen == frame.payload.gen:
            self._endpoint_broken(ep, "peer-closed")

    def _on_dgram(self, frame: Frame) -> None:
        # Datagrams (heartbeats, join control) are fielded by PRESS's
        # dedicated receive thread, so they bypass the main work queue —
        # a blocked main loop must not delay heartbeat receipt.  A hung
        # process (all threads stopped) receives nothing.
        if not self.node.process.running:
            return
        if self.on_datagram is not None:
            self.on_datagram(frame.src, frame.payload)

    # ------------------------------------------------------------------
    # Upcalls from endpoints
    # ------------------------------------------------------------------
    def _endpoint_broken(
        self, ep: TcpEndpoint, reason: str, notify: bool = True
    ) -> None:
        if self.endpoints.get(ep.peer) is ep:
            del self.endpoints[ep.peer]
        already_broken = ep.broken
        ep.mark_broken(reason)
        if not already_broken:
            self.engine.bus.publish(
                TCP_ENDPOINT_BROKEN,
                node=self.node_id,
                peer=ep.peer,
                reason=reason,
            )
        if notify and not already_broken:
            self.node.cpu.submit(_NOTIFY_COST, self._break_up, ep.peer, reason)

    def _deliver_record(self, ep: TcpEndpoint, record: StreamRecord) -> None:
        """A complete framed message sits in the receive buffer.

        PRESS's receive thread read()s it out promptly — freeing socket
        buffer space so the sender's window keeps moving — and queues the
        application work.  When the process is stopped no thread runs:
        the bytes stay in the kernel receive buffer, ACKs stop once it
        fills, and the sender stalls (the hang-fault behaviour).
        """
        node = self.node
        if node.process.running:
            # Read it out: free the receive-buffer bytes, queue the work.
            ep.rcvbuf_used = max(0, ep.rcvbuf_used - record.actual)
            msg = record.msg
            node.cpu.submit(self.costs.recv_cost(msg), self._deliver_up, ep.peer, msg)
        else:
            ep.frozen_records.append(record)

    def _on_process_cont(self) -> None:
        """SIGCONT: the receive thread catches up on buffered records."""
        for ep in list(self.endpoints.values()):
            while ep.frozen_records and not ep.broken:
                record = ep.frozen_records.popleft()
                ep.consume(record)
                self.node.cpu.submit(
                    self.costs.recv_cost(record.msg), self._deliver_up,
                    ep.peer, record.msg,
                )

    def _framing_violation(self, ep: TcpEndpoint, record: StreamRecord) -> None:
        """Garbage framing header: the byte stream is unrecoverable."""
        self._record_framing_error(ep)
        ep.consume(record)
        self.node.cpu.submit(
            _NOTIFY_COST, self._fatal_up, f"framing-corruption:{ep.peer}"
        )

    # -- cost model (used by the server for sizing its work items) --------
    def send_cost(self, msg: Message) -> float:
        return self.costs.send_cost(msg)

    def recv_cost(self, msg: Message) -> float:
        return self.costs.recv_cost(msg)
