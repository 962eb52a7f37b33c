"""Frames: the unit of transfer on the simulated fabric.

A frame is what a NIC puts on the wire.  Transports decide how application
messages map onto frames: TCP segments a byte stream into MSS-sized frames;
VIA sends one frame per descriptor (plus flow-control frames) or one RDMA
write per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True, init=False)
class Frame:
    """One unit on the wire.

    Attributes:
        src: sending node id.
        dst: destination node id.
        size: bytes on the wire (payload + header estimate).
        kind: coarse class used by instrumentation and fault filters
            (``"tcp"``, ``"via"``, ``"rdma"``, ``"client"``...).
        payload: opaque object handed to the receiver's NIC handler.
        frame_id: unique id, useful in traces and tests.  Assigned by
            the fabric at submit time from a per-fabric counter, so two
            runs in one process produce identical ids (a process-global
            counter would make trace diffs depend on run order).
        trace_id: the client request this frame works for (0 = none).
            Set by the HTTP layer on request/response/reject frames so
            the span collector can attribute fabric transit to the
            request; transport-internal frames stay at 0 (their message
            already carries the trace).

    The ``__init__`` is written by hand (one is built per frame on the
    hot path); the dataclass still provides equality, ``replace`` and
    the slot layout.
    """

    src: str
    dst: str
    size: int
    kind: str
    payload: Any
    frame_id: int
    trace_id: int

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        kind: str,
        payload: Any = None,
        frame_id: int = 0,
        trace_id: int = 0,
    ) -> None:
        if size < 0:
            raise ValueError(f"frame size must be >= 0, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.payload = payload
        self.frame_id = frame_id
        self.trace_id = trace_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame #{self.frame_id} {self.src}->{self.dst}"
            f" {self.kind} {self.size}B>"
        )


#: Rough per-frame wire overhead (headers, CRC) charged on top of payload.
WIRE_OVERHEAD_BYTES = 42
