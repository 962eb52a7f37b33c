"""A VIA channel: a VI pair with pre-allocated, pinned resources.

Compared to the TCP endpoint the data path is radically simpler — that is
the point of user-level communication — but the *error model* is richer:

* message boundaries are preserved (one descriptor per message);
* all buffers and descriptors are allocated and pinned at setup, so the
  data path cannot fail for lack of kernel memory;
* errors are fail-stop: a fabric-level problem (dead link, dead peer)
  breaks the connection immediately, and descriptor errors are reported
  with error status in completions — which PRESS treats as fatal;
* for remote-memory-write channels (VIA-PRESS-3/5), a bad descriptor is
  reported on **both** nodes involved in the transfer, so one injected
  fault takes down two processes (Figure 5).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ...net.packet import Frame
from ...obs.events import VIA_QUEUE_SHED
from ...obs.metrics import bound_counter
from ...sim.engine import Event, Timer
from ..base import (
    Channel,
    CorruptionKind,
    SENT,
    Message,
    SendResult,
    SendStatus,
)
from .params import ViaParams


class ViaChannel(Channel):
    """One side of a VI connection."""

    def __init__(self, transport, peer: str, gen: int, params: ViaParams):
        super().__init__(transport, peer)
        self.params = params
        self.gen = gen
        self.established = False
        self.connect_cb = None
        self.credits = params.credits
        self.backlog: Deque[Message] = deque()
        self._blocked_waiters: List[Event] = []
        self.pending_return_credits = 0
        self._credit_flush_timer: Optional[Timer] = None
        self.frozen_backlog: Deque[Message] = deque()
        self.pinned_bytes = 0  # registered at setup by the transport
        self._messages_sent = bound_counter(
            self.engine, "transport.via.messages_sent", node=self.local, peer=peer
        )
        self._messages_received = bound_counter(
            self.engine, "transport.via.messages_received", node=self.local, peer=peer
        )
        self._messages_shed = bound_counter(
            self.engine, "transport.via.messages_shed", node=self.local, peer=peer
        )

    @property
    def messages_sent(self) -> int:
        return self._messages_sent.value

    @property
    def messages_received(self) -> int:
        return self._messages_received.value

    @property
    def messages_shed(self) -> int:
        return self._messages_shed.value

    # ------------------------------------------------------------------
    # Send path (VipPostSend)
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> SendResult:
        """Post a message (VipPostSend).

        Unlike TCP — where a full kernel socket buffer blocks PRESS's
        single send thread and thereby the whole node — the VIA versions
        implement flow control *in the server*, so the main loop is never
        blocked by one stalled peer: messages queue per-channel in user
        memory and the oldest are shed when the queue overflows (those
        requests simply time out at their clients).
        """
        if self.broken:
            return SendResult(SendStatus.BROKEN)

        transport = self.transport
        if transport.send_interposers:
            msg = transport._apply_interposers(msg)
        transport.node.cpu.charge(transport.costs.send_cost(msg))

        if msg.corruption is not CorruptionKind.NONE:
            # Bad descriptor parameters.  The provider decides how the
            # error surfaces: stock VIA accepts the post and reports
            # through completion status — asynchronously, and for remote
            # memory writes at *both* endpoints; the ideal layer (§7)
            # validates at post time and rejects synchronously.
            return transport._handle_corrupted_post(self, msg)

        bus = self.engine.bus
        spans = bus.spans
        if spans is not None and msg.trace_id:
            # Open to close at the receiver's delivery (_deliver_up) or
            # right below if the queue sheds it.
            spans.start(
                msg.trace_id,
                "via.msg",
                self.engine.now,
                node=self.local,
                key=("msg", msg.msg_id),
                peer=self.peer,
                msg_type=msg.msg_type,
            )
        self.backlog.append(msg)
        while len(self.backlog) > self.params.app_queue_limit:
            dropped = self.backlog.popleft()
            self._messages_shed.inc()
            if spans is not None and dropped.trace_id:
                spans.end_key(
                    ("msg", dropped.msg_id), self.engine.now, "shed"
                )
            bus.publish(VIA_QUEUE_SHED, node=self.local, peer=self.peer)
        self._drain()
        return SENT

    def _drain(self) -> None:
        transport = self.transport
        # On a clean fabric path a post cannot fail — or synchronously
        # report an error that breaks the channel mid-loop — so the whole
        # credit window is collected into one train: same frames, same
        # timing, fewer heap events.  Any fault condition falls back to
        # the per-frame loop, whose per-iteration ``broken`` check
        # handles the SAN NIC's synchronous error upcall.
        train: Optional[List[Frame]] = (
            [] if transport.nic.fast_path_clear(self.peer) else None
        )
        while self.backlog and self.credits > 0 and not self.broken:
            if not self.established:
                return
            if self.params.dynamic_buffers and not (
                transport.node.kernel_memory.probe(self.backlog[0].size)
            ):
                # Ablation mode: without pre-allocation the send path
                # starves under a kernel-memory fault, exactly like TCP.
                if train:
                    transport.nic.send_train(train)
                self.engine.call_after(0.05, self._drain)
                return
            msg = self.backlog.popleft()
            self.credits -= 1
            self._messages_sent.inc()
            # Positional arguments: a keyword call costs about twice as
            # much, and this runs once per message.
            frame = Frame(
                self.local, self.peer, msg.size, transport.data_frame_kind,
                (self.gen, msg),
            )
            if train is None:
                transport.nic.send(frame)
            else:
                train.append(frame)
        if train:
            if len(train) == 1:
                # Common case (one credit, one message): same submission,
                # less train bookkeeping.
                transport.nic.send(train[0])
            else:
                transport.nic.send_train(train)
        if not self.backlog:
            self._wake_blocked()

    def _wake_blocked(self) -> None:
        if self._blocked_waiters:
            waiters, self._blocked_waiters = self._blocked_waiters, []
            for w in waiters:
                w.succeed()

    # ------------------------------------------------------------------
    # Receive path — called by the transport on frame arrival
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        """A message landed in one of our pre-posted receive buffers.

        PRESS's receive thread drains it promptly — copying it out and
        reposting the descriptor (returning the credit) — and queues the
        application work.  When the process is stopped, no thread runs:
        the message sits in the buffer and the credit is withheld, which
        is how a hung peer eventually blocks its senders.
        """
        self._messages_received.inc()
        if self.transport.node.process.running:
            self._credit_and_deliver(msg)
        else:
            self.frozen_backlog.append(msg)

    def _credit_and_deliver(self, msg: Message) -> None:
        transport = self.transport
        self._return_credit()
        transport.node.cpu.submit(
            transport.costs.recv_cost(msg), self._consume, msg
        )

    def drain_frozen(self) -> None:
        """The process resumed: the receive thread catches up."""
        while self.frozen_backlog and not self.broken:
            self._credit_and_deliver(self.frozen_backlog.popleft())

    def _consume(self, msg: Message) -> None:
        if self.broken:
            return
        self.transport._deliver_up(self.peer, msg)

    def _return_credit(self) -> None:
        """Repost the buffer and (batched) tell the sender."""
        self.pending_return_credits += 1
        if self.pending_return_credits >= self.params.credit_batch:
            self._flush_credits()
        elif self._credit_flush_timer is None or not self._credit_flush_timer.active:
            self._credit_flush_timer = self.engine.call_after(
                self.params.credit_flush_interval, self._flush_credits
            )

    def _flush_credits(self) -> None:
        self._credit_flush_timer = None
        if self.broken or self.pending_return_credits == 0:
            return
        n, self.pending_return_credits = self.pending_return_credits, 0
        self.transport.nic.send(
            Frame(
                self.local, self.peer, self.params.credit_frame_bytes,
                "via-credit", (self.gen, n),
            )
        )

    def handle_credits(self, n: int) -> None:
        self.credits = min(self.params.credits, self.credits + n)
        self._drain()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def mark_broken(self, reason: str) -> None:
        if self.broken:
            return
        self.broken = True
        self.break_reason = reason
        spans = self.engine.bus.spans
        if spans is not None:
            # Queued messages die with the VI (fail-stop: nothing else
            # ever touches them).
            for msg in self.backlog:
                if msg.trace_id:
                    spans.end_key(
                        ("msg", msg.msg_id),
                        self.engine.now,
                        "broken",
                        reason=reason,
                    )
        self.backlog.clear()
        self.frozen_backlog.clear()
        if self._credit_flush_timer is not None:
            self._credit_flush_timer.cancel()
            self._credit_flush_timer = None
        self._wake_blocked()  # blocked senders resume; next send sees BROKEN

    def close(self) -> None:
        self.transport.close_channel(self.peer)
