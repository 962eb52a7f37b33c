"""The client-facing HTTP front end of a PRESS node.

Client-server traffic shares the cLAN fabric with intra-cluster traffic
(as in the testbed) but is a distinct traffic class: Mendosus-style
intra-cluster faults do not touch it.  The front end is deliberately
simple — the paper's experiments only exercise static content — but
preserves what matters for availability accounting:

* a request reaching a node whose **process is dead** is refused at once
  (the kernel RSTs the connection);
* a request reaching a **hung** process is accepted by the kernel and
  queues behind the stopped main loop — the client gives up on its own
  timeout;
* a request reaching a **down node** is simply lost (the client's connect
  times out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..net.nic import Nic
from ..net.packet import Frame
from ..osim.node import Node
from ..sim.engine import Engine
from ..sim.ids import IdSource

_req_ids = IdSource("press.http.req_ids")

#: Bytes of an HTTP GET on the wire (request line + headers).
HTTP_REQUEST_BYTES = 300
#: Response framing overhead on top of the file body.
HTTP_RESPONSE_OVERHEAD_BYTES = 200


@dataclass
class HttpRequest:
    """A client request as seen by the server."""

    client_id: str
    req_id: int
    file_id: str
    sent_at: float

    @staticmethod
    def fresh(client_id: str, file_id: str, now: float) -> "HttpRequest":
        return HttpRequest(client_id, next(_req_ids), file_id, now)


class HttpPort:
    """Server-side HTTP listener bound to a node's NIC."""

    def __init__(
        self,
        engine: Engine,
        node: Node,
        parse_cost: float,
        on_request: Callable[[HttpRequest], None],
        accept_backlog: int = 128,
    ):
        self.engine = engine
        self.node = node
        self.nic: Nic = node.nic
        self.parse_cost = parse_cost
        self.on_request = on_request
        self.accept_backlog = accept_backlog
        self.accepted = 0
        self.refused = 0
        self.nic.register("http-req", self._on_frame)

    def _on_frame(self, frame: Frame) -> None:
        req: HttpRequest = frame.payload
        if not self.node.process.alive:
            # Kernel is up, no listener: connection refused immediately.
            self._refuse(req)
            return
        if self.node.cpu.depth >= self.accept_backlog:
            # Listen backlog overflow: a stalled main loop sheds load at
            # the kernel rather than queueing doomed work forever.
            self._refuse(req)
            return
        self.accepted += 1
        spans = self.engine.bus.spans
        if spans is not None:
            # Open on accept, closed by send_response — the span covers
            # parse, cache/disk work and any intra-cluster forwarding.
            spans.start(
                req.req_id,
                "http.serve",
                self.engine.now,
                node=self.node.node_id,
                key=("serve", req.req_id),
            )
        self.node.cpu.submit(self.parse_cost, self._dispatch, req)

    def _dispatch(self, req: HttpRequest) -> None:
        """Parsed-request work item (indirect so ``on_request`` rebinds)."""
        spans = self.engine.bus.spans
        if spans is not None:
            spans.note(
                spans.find(("serve", req.req_id)), parsed_at=self.engine.now
            )
        self.on_request(req)

    def _refuse(self, req: HttpRequest) -> None:
        self.refused += 1
        spans = self.engine.bus.spans
        if spans is not None:
            # Instantaneous by design: the kernel RSTs without the
            # process ever seeing the request (the fail-fast mechanism).
            spans.end(
                spans.start(
                    req.req_id,
                    "http.refuse",
                    self.engine.now,
                    node=self.node.node_id,
                ),
                self.engine.now,
                "refused",
            )
        self.nic.send(
            Frame(
                src=self.node.node_id,
                dst=req.client_id,
                size=64,
                kind="http-reject",
                payload=req.req_id,
                trace_id=req.req_id,
            )
        )

    def send_response(self, req: HttpRequest, nbytes: int) -> None:
        """Ship the file body back to the client."""
        spans = self.engine.bus.spans
        if spans is not None:
            # Close before the NIC submit so the response's fabric
            # transit is a sibling of the serve span, not a child —
            # the critical path splits server time from wire time.
            spans.end_key(("serve", req.req_id), self.engine.now)
        self.nic.send(
            # Positional (a keyword call costs about twice as much): the
            # 0 is the frame id the fabric assigns, the last argument the
            # trace id.
            Frame(
                self.node.node_id, req.client_id,
                nbytes + HTTP_RESPONSE_OVERHEAD_BYTES, "http-resp",
                req.req_id, 0, req.req_id,
            )
        )
