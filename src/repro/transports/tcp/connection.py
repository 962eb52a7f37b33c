"""TCP connection endpoints: byte-stream framing, windows, retransmission.

The model keeps TCP's *behavioural* contract rather than its exact wire
format:

* messages are framed onto a byte stream (header + body); the stream is
  segmented, windowed, and cumulatively ACKed;
* loss is detected only by retransmission timeout, with exponential
  backoff — during a fail-stop fault the connection simply stalls,
  buffers fill, and the sending application blocks (the paper's Figure 2
  behaviour for TCP-PRESS);
* every data segment and ACK needs a kernel buffer (skbuf); the injected
  kernel-memory fault makes outbound segments queue in the OS and inbound
  segments drop (Figure 4 behaviour);
* a corrupted send (off-by-N pointer/size) poisons the *stream*: framing
  desynchronizes and the receiver sees garbage headers on subsequent
  messages — TCP's byte-stream vulnerability the paper calls out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ...net.packet import Frame
from ...obs.events import TCP_RETRANSMIT
from ...obs.metrics import bound_counter
from ...sim.engine import Engine, Event, Timer
from ...sim.ids import IdSource
from ..base import (
    SENT,
    Channel,
    CorruptionKind,
    Message,
    SendResult,
    SendStatus,
    SyncParameterError,
)
from .params import TcpParams

_conn_gens = IdSource("transports.tcp.conn_gens")


def next_generation() -> int:
    """A cluster-unique connection generation (ISN analogue)."""
    return next(_conn_gens)


@dataclass(slots=True, init=False)
class SegPayload:
    """Payload of a ``tcp-seg`` frame.

    ``completed`` lists the stream records whose last byte this segment
    carries (a fresh list per payload when omitted).  The ``__init__``
    is written by hand: one is built per segment.
    """

    gen: int
    seq: int
    length: int
    completed: List["StreamRecord"]

    def __init__(
        self,
        gen: int,
        seq: int,
        length: int,
        completed: Optional[List["StreamRecord"]] = None,
    ) -> None:
        self.gen = gen
        self.seq = seq
        self.length = length
        self.completed = [] if completed is None else completed


@dataclass(slots=True)
class AckPayload:
    gen: int
    ack_seq: int


@dataclass(slots=True)
class CtrlPayload:
    """SYN / SYNACK / RST / CLOSE control payload."""

    gen: int


@dataclass(slots=True)
class StreamRecord:
    """One framed application message within the byte stream.

    ``declared`` is the length written in the framing header; ``actual``
    is how many body bytes the (possibly corrupted) send call really
    produced, i.e. the record's bytes on the stream.  A mismatch
    (``actual - declared``) shifts every subsequent header — the stream
    skew.
    """

    msg: Message
    declared: int
    actual: int
    end_seq: int = 0  # stream offset one past this record's last byte


class TcpEndpoint(Channel):
    """One side of a TCP connection between two cluster nodes."""

    def __init__(self, transport, peer: str, gen: int, params: TcpParams):
        super().__init__(transport, peer)
        self.params = params
        self.gen = gen
        self.established = False
        self.connect_cb = None  # set by Transport.connect

        # -- transmit state ------------------------------------------------
        self.stream_len = 0  # bytes enqueued so far
        self.sent_seq = 0  # next byte to transmit
        self.acked_seq = 0  # cumulative ACK from peer
        self.sndbuf_used = 0
        self._unacked: Deque[StreamRecord] = deque()
        self._pending_boundaries: Deque[StreamRecord] = deque()
        self._blocked_waiters: List[Event] = []
        self._rto_timer: Optional[Timer] = None
        self._rto_timer_at = 0.0  # fire time of the physical timer
        self._rto_deadline: Optional[float] = None  # None = not armed
        self._rto = params.rto_initial
        self._stalled_since: Optional[float] = None
        self._alloc_retry: Optional[Timer] = None
        self._retransmissions = bound_counter(
            self.engine, "transport.tcp.retransmissions", node=self.local, peer=peer
        )

        # -- receive state ----------------------------------------------------
        self.expected_seq = 0
        self.rcvbuf_used = 0
        self.rx_skew = 0
        self.frozen_records: Deque[StreamRecord] = deque()

    @property
    def retransmissions(self) -> int:
        return self._retransmissions.value

    # ------------------------------------------------------------------
    # Application send path
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> SendResult:
        """Frame ``msg`` onto the stream.

        NULL-pointer corruption is caught synchronously by the kernel
        (copy_from_user faults → EFAULT) and the message never enters the
        stream.  Off-by-N corruptions are *valid* reads of wrong bytes —
        the kernel cannot tell, so the poisoned bytes go out.
        """
        if self.broken:
            return SendResult(SendStatus.BROKEN)

        transport = self.transport
        if transport.send_interposers:
            msg = transport._apply_interposers(msg)
        transport.node.cpu.charge(transport.costs.send_cost(msg))

        if msg.corruption is CorruptionKind.NULL_POINTER:
            return SendResult(
                SendStatus.SYNC_ERROR, error=SyncParameterError("EFAULT")
            )

        header = self.params.header_size
        declared = header + msg.size
        if declared > self.params.rcvbuf_bytes:
            # A framed message must fit the peer's receive buffer to be
            # assembled — applications stream anything bigger (as PRESS
            # does with caching info).
            raise ValueError(
                f"message of {declared} bytes exceeds the receive buffer"
                f" ({self.params.rcvbuf_bytes}); chunk it"
            )
        if msg.corruption is CorruptionKind.OFF_BY_N_SIZE:
            actual = max(0, declared + msg.skew)
        else:
            actual = declared
        self.stream_len = end_seq = self.stream_len + actual
        record = StreamRecord(msg, declared, actual, end_seq)
        self.sndbuf_used += actual
        self._unacked.append(record)
        self._pending_boundaries.append(record)
        spans = self.engine.bus.spans
        if spans is not None and msg.trace_id:
            # Open to close at the receiver's delivery (_deliver_up);
            # retransmission rewinds bump a counter on the open span.
            spans.start(
                msg.trace_id,
                "tcp.msg",
                self.engine.now,
                node=self.local,
                key=("msg", msg.msg_id),
                peer=self.peer,
                msg_type=msg.msg_type,
            )
        self._pump()

        if self.sndbuf_used > self.params.sndbuf_bytes:
            waiter = self.engine.event()
            self._blocked_waiters.append(waiter)
            return SendResult(SendStatus.BLOCKED, unblock_event=waiter)
        return SENT

    # ------------------------------------------------------------------
    # Segment pump (kernel TX path)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self.broken or not self.established:
            return
        sent = self.sent_seq
        stream_len = self.stream_len
        if sent >= stream_len:
            self._arm_rto()  # nothing to send: same fall-through as below
            return
        # Everything the per-segment loop touches is hoisted to locals:
        # no simulated event runs inside the loop, so none of these can
        # change under it (a synchronous SAN error report may mark the
        # endpoint broken, but that never touched the cursor either).
        params = self.params
        transport = self.transport
        window = params.window_bytes
        seg_size = params.segment_size
        acked = self.acked_seq
        probe = transport.node.kernel_memory.probe
        nic_send = transport.nic.send
        local = self.local
        peer = self.peer
        gen = self.gen
        first_sent = sent
        # Message boundaries not yet covered by a transmitted segment, in
        # stream order.  Consuming from the front replaces a scan of the
        # whole unacked deque per segment (quadratic in window size).
        boundaries = self._pending_boundaries
        # On a clean fabric path, collect the whole burst and submit it in
        # one fabric call; timing and loss behaviour are identical (the
        # fabric serializes the train with the same arithmetic), there are
        # just fewer heap events.  ``fast_path_clear`` is re-checked every
        # pump because faults flip it between calls, never within one.
        train: Optional[List[Frame]] = (
            [] if transport.nic.fast_path_clear(peer) else None
        )
        alloc_failed = False
        while sent < stream_len:
            inflight = sent - acked
            if inflight >= window:
                break
            seg_len = min(seg_size, stream_len - sent, window - inflight)
            if not probe(seg_len):
                alloc_failed = True
                break
            while boundaries and boundaries[0].end_seq <= sent:
                boundaries.popleft()  # already behind the send cursor
            end = sent + seg_len
            completed: List[StreamRecord] = []
            while boundaries and boundaries[0].end_seq <= end:
                completed.append(boundaries.popleft())
            # Positional arguments: a keyword call costs about twice as
            # much, and this runs once per segment.
            frame = Frame(
                local, peer, seg_len, "tcp-seg",
                SegPayload(gen, sent, seg_len, completed),
            )
            if train is None:
                nic_send(frame)  # silent loss: TCP learns via RTO
            else:
                train.append(frame)
            sent = end
        self.sent_seq = sent
        if sent != first_sent and self._stalled_since is None:
            self._stalled_since = self.engine.now
        if train:
            if len(train) == 1:
                # ACK-clocked steady state: one window slot opened, one
                # segment out.  send() is the same submission with less
                # train bookkeeping.
                nic_send(train[0])
            else:
                transport.nic.send_train(train)
        if alloc_failed:
            # Out of kernel memory: the packet waits inside the OS and the
            # stack retries allocation later.
            self._schedule_alloc_retry()
            return
        self._arm_rto()

    def _schedule_alloc_retry(self) -> None:
        if self._alloc_retry is not None and self._alloc_retry.active:
            return
        self._alloc_retry = self.engine.call_after(
            self.params.alloc_retry_interval, self._alloc_retry_fire
        )

    def _alloc_retry_fire(self) -> None:
        self._alloc_retry = None
        if not self.broken:
            self._pump()

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        if self.sent_seq == self.acked_seq:
            self._rto_deadline = None
            self._stalled_since = None
            return
        if self._rto_deadline is not None:
            return  # already armed; keep the earlier deadline
        self._rto_deadline = deadline = self.engine.now + self._rto
        # Lazy timer: each ACK merely clears the deadline; a ticking
        # physical timer is left in the heap and re-arms itself to the
        # live deadline when it fires.  Cancelling + reallocating a heap
        # entry per ACK would dominate the steady-state data path.
        if self._rto_timer is None or not self._rto_timer.active:
            self._rto_timer = self.engine.call_after(self._rto, self._rto_fire)
            self._rto_timer_at = deadline
        elif self._rto_timer_at > deadline:
            # Backoff just got reset: the ticking timer would fire too
            # late for the fresh deadline, so it must be replaced.
            self._rto_timer.cancel()
            self._rto_timer = self.engine.call_after(self._rto, self._rto_fire)
            self._rto_timer_at = deadline

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _rto_fire(self) -> None:
        self._rto_timer = None
        deadline = self._rto_deadline
        if deadline is None:
            return  # disarmed since the timer was set
        now = self.engine.now
        if deadline > now:
            self._rto_timer = self.engine.call_after(
                deadline - now, self._rto_fire
            )
            self._rto_timer_at = deadline
            return
        self._rto_deadline = None
        self._on_rto()

    def _on_rto(self) -> None:
        if self.broken:
            return
        if (
            self._stalled_since is not None
            and self.engine.now - self._stalled_since
            >= self.params.connection_timeout
        ):
            # Minutes of failed retries: the kernel finally gives up.
            self.transport._endpoint_broken(self, "etimedout")
            return
        # Go-back-N: everything past the cumulative ACK was (potentially)
        # lost; rewind and resend with a doubled timeout.
        self._retransmissions.inc()
        bus = self.engine.bus
        bus.publish(TCP_RETRANSMIT, node=self.local, peer=self.peer, rto=self._rto)
        spans = bus.spans
        if spans is not None:
            # Every unacked record is rewound; charge the retransmission
            # to each traced message still in flight.
            for record in self._unacked:
                if record.msg.trace_id:
                    spans.bump(
                        spans.find(("msg", record.msg.msg_id)), "retransmits"
                    )
        self.sent_seq = self.acked_seq
        # The rewound range will be re-segmented: every unacked record's
        # boundary is pending again (``_unacked`` holds exactly the records
        # past the cumulative ACK, in stream order).
        self._pending_boundaries = deque(self._unacked)
        self._rto = min(self._rto * 2, self.params.rto_max)
        self._pump()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Inbound (kernel RX path) — called by the owning transport
    # ------------------------------------------------------------------
    def handle_segment(self, payload: SegPayload) -> None:
        length = payload.length
        if not self.transport.node.kernel_memory.probe(length):
            return  # inbound packet dropped: no skbuf at the faulty node
        if payload.seq != self.expected_seq:
            if payload.seq < self.expected_seq:
                self._send_ack()  # duplicate: re-ACK to resync the sender
            return  # out-of-order after loss: dropped, sender will rewind
        if self.rcvbuf_used + length > self.params.rcvbuf_bytes:
            return  # receiver application is not draining; exert backpressure
        self.expected_seq += length
        self.rcvbuf_used += length
        completed = payload.completed
        if completed:
            for record in completed:
                self._record_complete(record)
        self._send_ack()

    def _send_ack(self) -> None:
        transport = self.transport
        ack_bytes = self.params.ack_bytes
        if not transport.node.kernel_memory.probe(ack_bytes):
            return  # even ACKs need buffers; the faulty node goes mute
        transport.nic.send(
            Frame(
                self.local, self.peer, ack_bytes, "tcp-ack",
                AckPayload(self.gen, self.expected_seq),
            )
        )

    def _record_complete(self, record: StreamRecord) -> None:
        """A whole framed message has been assembled in the receive buffer."""
        msg = record.msg
        if self.params.boundary_preserving:
            # Ablation mode: message boundaries contain the damage — the
            # corrupted message is detected (length check) and dropped;
            # the connection and the process survive.
            if (
                record.actual != record.declared
                or msg.corruption is CorruptionKind.OFF_BY_N_POINTER
            ):
                self.transport._record_framing_error(self)
                self.consume(record)
                return
            self.transport._deliver_record(self, record)
            return
        if self.rx_skew != 0 or msg.corruption is CorruptionKind.OFF_BY_N_POINTER:
            # The framing header either sits at a shifted offset (stream
            # skew) or was read from a bogus pointer: its magic fails
            # validation.  The byte stream is garbage from here on.
            self.transport._framing_violation(self, record)
            return
        self.rx_skew += record.actual - record.declared
        self.transport._deliver_record(self, record)

    def consume(self, record: StreamRecord) -> None:
        """The application took delivery; free the receive-buffer bytes."""
        self.rcvbuf_used = max(0, self.rcvbuf_used - record.actual)

    def handle_ack(self, payload: AckPayload) -> None:
        if payload.ack_seq <= self.acked_seq:
            return
        self.acked_seq = min(payload.ack_seq, self.stream_len)
        while self._unacked and self._unacked[0].end_seq <= self.acked_seq:
            record = self._unacked.popleft()
            self.sndbuf_used -= record.actual
        # Forward progress: reset backoff and the stall clock.  Disarm the
        # RTO logically only — the physical timer re-arms itself (see
        # :meth:`_arm_rto`).
        self._rto = self.params.rto_initial
        self._stalled_since = None
        self._rto_deadline = None
        if self.sent_seq < self.acked_seq:
            self.sent_seq = self.acked_seq
        if self._blocked_waiters:
            self._maybe_unblock()
        self._pump()

    def _maybe_unblock(self) -> None:
        lowwater = self.params.sndbuf_bytes * self.params.unblock_lowwater
        if self.sndbuf_used <= lowwater and self._blocked_waiters:
            waiters, self._blocked_waiters = self._blocked_waiters, []
            for w in waiters:
                w.succeed()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def mark_broken(self, reason: str) -> None:
        """Local bookkeeping for a dead connection (no wire activity)."""
        if self.broken:
            return
        self.broken = True
        self.break_reason = reason
        spans = self.engine.bus.spans
        if spans is not None:
            # Messages still unacknowledged die with the connection — the
            # receiver may have assembled some, but this sender can no
            # longer know; any span the receiver already closed is a
            # no-op here.
            for record in self._unacked:
                if record.msg.trace_id:
                    spans.end_key(
                        ("msg", record.msg.msg_id),
                        self.engine.now,
                        "broken",
                        reason=reason,
                    )
        self._cancel_rto()
        if self._alloc_retry is not None:
            self._alloc_retry.cancel()
            self._alloc_retry = None
        # Blocked senders wake up; their next send() sees BROKEN.
        waiters, self._blocked_waiters = self._blocked_waiters, []
        for w in waiters:
            w.succeed()

    def close(self) -> None:
        self.transport.close_channel(self.peer)
