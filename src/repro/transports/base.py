"""Common intra-cluster transport interface used by PRESS.

PRESS is written against this narrow API so the TCP and VIA versions share
one server implementation (mirroring the paper: "The TCP version basically
has the same structure of its VIA counterpart").

Key semantic knobs the two implementations differ on — the entire subject
of the paper:

* **Message boundaries**: VIA preserves them; TCP is a byte stream with a
  framing layer on top, so parameter corruption can desynchronize
  *subsequent* messages.
* **Error reporting**: TCP detects some bad parameters synchronously
  (EFAULT) and detects dead peers only via timeouts/RSTs; VIA reports
  errors through completions and breaks connections fail-stop, almost
  instantly, on any fabric-level problem.
* **Resource allocation**: TCP allocates kernel buffers per packet; VIA
  pre-allocates everything at channel setup.

Backpressure protocol: :meth:`Channel.send` returns a :class:`SendResult`.
``BLOCKED`` means the message *was queued* but the caller must block its
main loop on ``unblock_event`` before submitting more work — this is how a
stalled peer freezes a whole node, the paper's central availability
mechanism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..sim.engine import Engine, Event
from ..sim.ids import IdSource

_message_ids = IdSource("transports.message_ids")


class CommError(Exception):
    """Base for transport-level errors surfaced to the application."""


class SyncParameterError(CommError):
    """Synchronously detected bad parameter (TCP send() -> EFAULT)."""

    def __init__(self, errno_name: str = "EFAULT"):
        super().__init__(errno_name)
        self.errno_name = errno_name


class FatalTransportError(CommError):
    """Asynchronous fatal error (VIA descriptor completion with error).

    PRESS's fail-fast policy terminates the process on these.
    """


class CorruptionKind(enum.Enum):
    """How an interposed bad-parameter fault mangled a send/recv call."""

    NONE = "none"
    NULL_POINTER = "null-pointer"
    OFF_BY_N_POINTER = "off-by-n-pointer"
    OFF_BY_N_SIZE = "off-by-n-size"


@dataclass(slots=True, init=False)
class Message:
    """An application-level message between cluster nodes.

    ``trace_id`` names the client request this message works for
    (0 = none) — the PRESS server stamps it on forwards, file-data
    replies, and the cache-update broadcasts a traced request tipped,
    so transport spans land in the right request tree.

    ``msg_id`` defaults to the next id of the process-wide message
    counter.  The ``__init__`` is written by hand (messages are built
    per request); the dataclass still provides equality, ``replace``
    and the slot layout.
    """

    msg_type: str
    size: int
    payload: Any
    corruption: CorruptionKind
    skew: int  # byte skew for OFF_BY_N_SIZE faults
    msg_id: int
    trace_id: int

    def __init__(
        self,
        msg_type: str,
        size: int,
        payload: Any = None,
        corruption: CorruptionKind = CorruptionKind.NONE,
        skew: int = 0,
        msg_id: Optional[int] = None,
        trace_id: int = 0,
    ) -> None:
        self.msg_type = msg_type
        self.size = size
        self.payload = payload
        self.corruption = corruption
        self.skew = skew
        # Drawn before the size check, as the generated __init__ did.
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.trace_id = trace_id
        if size < 0:
            raise ValueError("message size must be >= 0")


class SendStatus(enum.Enum):
    SENT = "sent"
    BLOCKED = "blocked"
    SYNC_ERROR = "sync-error"
    BROKEN = "broken"  # channel already broken; message dropped


@dataclass(slots=True, frozen=True)
class SendResult:
    status: SendStatus
    error: Optional[CommError] = None
    unblock_event: Optional[Event] = None

    @property
    def ok(self) -> bool:
        return self.status in (SendStatus.SENT, SendStatus.BLOCKED)


#: The result of every plain successful send (results are immutable, so
#: one instance serves them all).
SENT = SendResult(SendStatus.SENT)


class Channel:
    """A connection between two cluster nodes, as seen from one side."""

    def __init__(self, transport: "Transport", peer: str):
        self.transport = transport
        self.engine: Engine = transport.engine
        self.local = transport.node_id
        self.peer = peer
        self.broken = False
        self.break_reason: Optional[str] = None

    def send(self, msg: Message) -> SendResult:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "broken" if self.broken else "open"
        return f"<{type(self).__name__} {self.local}->{self.peer} {state}>"


class Transport:
    """Per-node transport endpoint.

    Application wiring (set by the PRESS server):

    * ``on_message(peer, msg)`` — a complete message arrived and its
      receive CPU cost has already been charged.
    * ``on_break(peer, reason)`` — the channel to ``peer`` broke; for VIA
      this is the fail-stop signal PRESS uses for fault detection.
    * ``on_fatal(reason)`` — an error this transport reports as fatal to
      the local process (VIA descriptor errors, TCP framing corruption).
    """

    #: Subclasses override: does this transport preserve message boundaries?
    preserves_boundaries = True

    def __init__(self, engine: Engine, node_id: str):
        self.engine = engine
        self.node_id = node_id
        self.channels: Dict[str, Channel] = {}
        self.on_message: Optional[Callable[[str, Message], None]] = None
        self.on_break: Optional[Callable[[str, str], None]] = None
        self.on_fatal: Optional[Callable[[str], None]] = None
        self.send_interposers: List[Callable[[Message], Message]] = []

    # -- wiring ------------------------------------------------------------
    def connect(
        self, peer: str, on_result: Optional[Callable[[bool], None]] = None
    ) -> Channel:
        """Open (or return) the channel to ``peer``."""
        raise NotImplementedError

    def channel(self, peer: str) -> Optional[Channel]:
        return self.channels.get(peer)

    def close_channel(self, peer: str) -> None:
        """Tear down the channel to ``peer``."""
        raise NotImplementedError

    def send_datagram(self, peer: str, msg: Message) -> None:
        """Unconnected control message (heartbeats, join protocol)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down all channels (operator reset)."""
        raise NotImplementedError

    # -- cost model ----------------------------------------------------------
    def send_cost(self, msg: Message) -> float:
        """CPU seconds the *sender* burns to transmit ``msg``."""
        raise NotImplementedError

    def recv_cost(self, msg: Message) -> float:
        """CPU seconds the *receiver* burns to take delivery of ``msg``."""
        raise NotImplementedError

    # -- interposition (bad-parameter fault injection) -----------------------
    def interpose_send(self, fn: Callable[[Message], Message]) -> None:
        """Install a Mendosus-style interposer on the send path."""
        self.send_interposers.append(fn)

    def _apply_interposers(self, msg: Message) -> Message:
        for fn in self.send_interposers:
            msg = fn(msg)
        return msg

    # -- snapshot support (see repro.sim.snapshot) ---------------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable).

        Message ids are deliberately absent: they come from a module
        counter whose absolute position is process-local and
        unobservable (serial/parallel campaign parity already relies on
        that), so folding them in would poison warm/cold comparisons.
        """
        return {
            "node": self.node_id,
            "channels": {
                peer: {"broken": ch.broken, "reason": ch.break_reason}
                for peer, ch in sorted(self.channels.items())
            },
            "interposers": len(self.send_interposers),
        }

    # -- helpers for subclasses ----------------------------------------------
    def _deliver_up(self, peer: str, msg: Message) -> None:
        spans = self.engine.bus.spans
        if spans is not None and msg.trace_id:
            # Close the sender's message span: the message is now in the
            # application's hands (recv cost charged by the caller).
            spans.end_key(("msg", msg.msg_id), self.engine.now)
        if self.on_message is not None:
            self.on_message(peer, msg)

    def _break_up(self, peer: str, reason: str) -> None:
        if self.on_break is not None:
            self.on_break(peer, reason)

    def _fatal_up(self, reason: str) -> None:
        if self.on_fatal is not None:
            self.on_fatal(reason)
