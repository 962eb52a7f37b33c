"""The PRESS server: locality-conscious, cooperative-caching request flow.

One :class:`PressServer` runs per cluster node (hosted by the node's
:class:`~repro.osim.process.SimProcess`).  The request flow follows §3 of
the paper:

* any node can receive a client request (round-robin DNS) and becomes its
  **initial node**;
* the initial node consults its locality directory — built from
  cache-content broadcasts — and either serves the file itself or
  forwards the request to the **service node** caching it;
* the service node returns the file data to the initial node, which ships
  it to the client;
* every cache insertion/eviction is broadcast so the directory stays
  current.

The availability-relevant plumbing:

* intra-cluster sends that hit transport backpressure **block the main
  loop** (``WorkQueue.block_on``) — how one sick peer freezes a node;
* transport ``on_break`` feeds :class:`Membership` — reconfiguration;
* transport ``on_fatal`` (VIA descriptor errors, TCP framing corruption)
  triggers PRESS's **fail-fast** policy: the process terminates itself
  and the node's restart daemon brings it back for rejoin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.metrics import bound_counter
from ..osim.node import Node
from ..sim.engine import Engine
from ..sim.monitor import Annotations
from ..transports.base import Message, SendStatus, Transport
from ..workload.trace import FileSet
from .cache import FileCache
from .config import PressConfig
from .http import HttpPort, HttpRequest
from .membership import Membership


class PressServer:
    """One PRESS node."""

    def __init__(
        self,
        engine: Engine,
        node: Node,
        transport: Transport,
        config: PressConfig,
        fileset: FileSet,
        all_server_ids: List[str],
        annotations: Annotations,
    ):
        self.engine = engine
        self.node = node
        self.transport = transport
        self.config = config
        self.fileset = fileset
        self.all_server_ids = sorted(all_server_ids)
        self.annotations = annotations
        self.node_id = node.node_id

        # Per-incarnation state, built in _incarnate().
        self.cache: Optional[FileCache] = None
        self.membership: Optional[Membership] = None
        self.directory: Dict[str, str] = {}  # file -> caching node
        self.pending_forwards: Dict[int, Tuple[HttpRequest, str]] = {}
        self._update_batch: List[Tuple[str, str]] = []
        self._batch_timer_armed = False
        # Request attribution for cache-update broadcasts: the request
        # whose cache insertion opened the current batch.  Maintained
        # unconditionally (pure ints, deterministic) so span-enabled and
        # span-disabled runs carry identical server state.
        self._active_trace = 0
        self._batch_trace = 0

        # Counters (cumulative across incarnations).
        self._requests_handled = bound_counter(
            engine, "press.server.requests_handled", node=self.node_id
        )
        self._requests_forwarded = bound_counter(
            engine, "press.server.requests_forwarded", node=self.node_id
        )
        self._remote_serves = bound_counter(
            engine, "press.server.remote_serves", node=self.node_id
        )
        self._local_serves = bound_counter(
            engine, "press.server.local_serves", node=self.node_id
        )
        self._disk_reads = bound_counter(
            engine, "press.server.disk_reads", node=self.node_id
        )
        self._fail_fasts = bound_counter(
            engine, "press.server.fail_fasts", node=self.node_id
        )

        self.http = HttpPort(
            engine,
            node,
            config.http.parse,
            self._handle_request,
            accept_backlog=config.accept_backlog,
        )
        transport.on_message = self._on_message
        transport.on_break = self._on_break
        transport.on_fatal = self._on_fatal
        transport.on_accept = self._on_accept
        transport.on_datagram = self._on_datagram
        node.process.on_start.append(self._incarnate)
        node.process.on_death.append(self._cleanup)

    @property
    def requests_handled(self) -> int:
        return self._requests_handled.value

    @property
    def requests_forwarded(self) -> int:
        return self._requests_forwarded.value

    @property
    def remote_serves(self) -> int:
        return self._remote_serves.value

    @property
    def local_serves(self) -> int:
        return self._local_serves.value

    @property
    def disk_reads(self) -> int:
        return self._disk_reads.value

    @property
    def fail_fasts(self) -> int:
        return self._fail_fasts.value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _incarnate(self) -> None:
        cfg = self.config
        self.cache = FileCache(
            self.engine,
            cfg.cache_bytes,
            pinned=cfg.zero_copy,
            pin_memory=self.node.pinnable,
            node_id=self.node_id,
        )
        self.cache.on_change.append(self._on_cache_change)
        self.directory = {}
        self.pending_forwards = {}
        self._update_batch = []
        self._batch_timer_armed = False
        self._active_trace = 0
        self._batch_trace = 0
        self.membership = Membership(
            engine=self.engine,
            self_id=self.node_id,
            all_ids=self.all_server_ids,
            process=self.node.process,
            send_datagram=self.transport.send_datagram,
            use_heartbeats=cfg.use_heartbeats,
            heartbeat_interval=cfg.heartbeat_interval,
            heartbeat_threshold=cfg.heartbeat_threshold,
            join_retry_interval=cfg.join_retry_interval,
            join_max_retries=cfg.join_max_retries,
            on_exclude=self._handle_exclusion,
            on_include=self._handle_inclusion,
            on_joined=self._handle_joined,
            on_join_gave_up=self._handle_join_gave_up,
            connect_to=self.transport.connect,
            annotate=self.annotations.mark,
            auto_remerge=cfg.auto_remerge,
            remerge_probe_interval=cfg.remerge_probe_interval,
        )
        if self.node.process.incarnation == 1:
            self.membership.bootstrap()
            # Cold start: the lower-id side of each pair dials.
            for peer in self.membership.peers():
                if peer > self.node_id:
                    self.transport.connect(peer)
        else:
            self.annotations.mark("process-restarted", self.node_id)
            self.membership.start_join()

    def _cleanup(self, reason: str) -> None:
        if self.cache is not None:
            self.cache.release()
        self.pending_forwards.clear()
        self.directory.clear()
        self.annotations.mark("process-died", f"{self.node_id} ({reason})")

    # ------------------------------------------------------------------
    # Client request path
    # ------------------------------------------------------------------
    def _handle_request(self, req: HttpRequest) -> None:
        """Main-loop work item: dispatch a parsed client request."""
        if self.cache is None or self.membership is None:
            return
        self._requests_handled.inc()
        file_id = req.file_id
        owner = self.directory.get(file_id)
        if (
            owner is not None
            and owner != self.node_id
            and self.membership.is_member(owner)
            and file_id not in self.cache
        ):
            self._forward(req, owner)
        else:
            self._serve_locally(req)

    def _serve_locally(self, req: HttpRequest) -> None:
        size = self.cache.lookup(req.file_id)
        if size is not None:
            self._local_serves.inc()
            self._respond(req, size)
            return
        size = self.fileset.size(req.file_id)
        self._disk_reads.inc()
        spans = self.engine.bus.spans
        if spans is not None:
            spans.start(
                req.req_id,
                "press.disk",
                self.engine.now,
                node=self.node_id,
                key=("disk", self.node_id, req.req_id),
                file=req.file_id,
            )
        self.node.disk_read(size, self._disk_done, req, size)

    def _disk_done(self, req: HttpRequest, size: int) -> None:
        """Disk helper thread finished; hand back to the main loop."""
        spans = self.engine.bus.spans
        if spans is not None:
            spans.end_key(("disk", self.node_id, req.req_id), self.engine.now)
        self.node.cpu.submit(
            self.config.http.cache_insert, self._serve_after_disk, req, size
        )

    def _serve_after_disk(self, req: HttpRequest, size: int) -> None:
        if self.cache is None:
            return
        self._active_trace = req.req_id
        self.cache.insert(req.file_id, size)
        self._active_trace = 0
        self._local_serves.inc()
        self._respond(req, size)

    def _respond(self, req: HttpRequest, size: int) -> None:
        self.node.cpu.charge(self.config.http.respond(size))
        self.http.send_response(req, size)

    # ------------------------------------------------------------------
    # Intra-cluster request forwarding
    # ------------------------------------------------------------------
    def _forward(self, req: HttpRequest, owner: str) -> None:
        channel = self.transport.channel(owner)
        if channel is None or channel.broken:
            self._serve_locally(req)
            return
        self._requests_forwarded.inc()
        self.pending_forwards[req.req_id] = (req, owner)
        spans = self.engine.bus.spans
        if spans is not None:
            # Covers the whole round trip: fwd-req out, remote serve,
            # file-data back.  Closed by _finish_forwarded, or by
            # _handle_exclusion when membership purges the forward.
            spans.start(
                req.req_id,
                "press.forward",
                self.engine.now,
                node=self.node_id,
                key=("fwd", req.req_id),
                owner=owner,
            )
        msg = Message(
            "fwd-req",
            self.config.forward_msg_bytes,
            payload=(req.req_id, req.file_id, self.node_id),
            trace_id=req.req_id,
        )
        self._send_on(channel, msg)

    def _send_on(self, channel, msg: Message) -> None:
        """Send on the main loop, honouring transport backpressure."""
        result = channel.send(msg)
        if result.status is SendStatus.BLOCKED:
            self.node.cpu.block_on(result.unblock_event)
        # SYNC_ERROR (TCP EFAULT): PRESS logs the error and drops the
        # message — the paper's TCP NULL-pointer behaviour.  BROKEN:
        # membership will exclude the peer; pending requests time out.

    def _on_message(self, peer: str, msg: Message) -> None:
        """Main-loop work item: an intra-cluster message arrived."""
        if self.cache is None or self.membership is None:
            return
        mtype = msg.msg_type
        if mtype == "fwd-req":
            self._serve_remote(peer, msg)
        elif mtype == "file-data":
            self._finish_forwarded(msg)
        elif mtype == "cache-updates":
            self._apply_cache_updates(peer, msg.payload)
        elif mtype == "cache-info":
            self._apply_cache_info(msg.payload)

    def _serve_remote(self, origin: str, msg: Message) -> None:
        """We are the service node for a forwarded request."""
        req_id, file_id, origin_id = msg.payload
        spans = self.engine.bus.spans
        if spans is not None:
            # Nests under the origin's press.forward span (still open on
            # this trace); closed when the file-data reply is posted.
            spans.start(
                req_id,
                "press.remote",
                self.engine.now,
                node=self.node_id,
                key=("remote", self.node_id, req_id),
                file=file_id,
            )
        size = self.cache.lookup(file_id)
        if size is not None:
            self._remote_serves.inc()
            self._send_file_data(origin_id, req_id, file_id, size)
            return
        size = self.fileset.size(file_id)
        self._disk_reads.inc()
        if spans is not None:
            spans.start(
                req_id,
                "press.disk",
                self.engine.now,
                node=self.node_id,
                key=("disk", self.node_id, req_id),
                file=file_id,
            )
        self.node.disk_read(
            size, self._remote_read_done, origin_id, req_id, file_id, size
        )

    def _remote_read_done(
        self, origin_id: str, req_id: int, file_id: str, size: int
    ) -> None:
        """Disk helper finished a forwarded read; back to the main loop."""
        spans = self.engine.bus.spans
        if spans is not None:
            spans.end_key(("disk", self.node_id, req_id), self.engine.now)
        self.node.cpu.submit(
            self.config.http.cache_insert,
            self._remote_disk_done,
            origin_id,
            req_id,
            file_id,
            size,
        )

    def _remote_disk_done(
        self, origin_id: str, req_id: int, file_id: str, size: int
    ) -> None:
        if self.cache is None:
            return
        self._active_trace = req_id
        self.cache.insert(file_id, size)
        self._active_trace = 0
        self._remote_serves.inc()
        self._send_file_data(origin_id, req_id, file_id, size)

    def _send_file_data(
        self, origin_id: str, req_id: int, file_id: str, size: int
    ) -> None:
        spans = self.engine.bus.spans
        if spans is not None:
            # The remote serve ends as the reply is posted; the reply's
            # transport span becomes a sibling under press.forward.
            spans.end_key(("remote", self.node_id, req_id), self.engine.now)
        channel = self.transport.channel(origin_id)
        if channel is None or channel.broken:
            return  # initial node is gone; its client will time out
        msg = Message(
            "file-data", size, payload=(req_id, file_id), trace_id=req_id
        )
        self._send_on(channel, msg)

    def _finish_forwarded(self, msg: Message) -> None:
        req_id, file_id = msg.payload
        entry = self.pending_forwards.pop(req_id, None)
        if entry is None:
            return  # request was purged (peer excluded) or duplicated
        spans = self.engine.bus.spans
        if spans is not None:
            spans.end_key(("fwd", req_id), self.engine.now)
        req, _owner = entry
        self._respond(req, msg.size)

    # ------------------------------------------------------------------
    # Cache-content dissemination
    # ------------------------------------------------------------------
    def _on_cache_change(self, action: str, file_id: str) -> None:
        if not self._update_batch:
            # The request whose insertion opened this batch gets the
            # broadcast attributed to it (a "late" child of its trace).
            self._batch_trace = self._active_trace
        self._update_batch.append((action, file_id))
        if len(self._update_batch) >= self.config.cache_update_batch:
            self._flush_cache_updates()
        elif not self._batch_timer_armed:
            self._batch_timer_armed = True
            self.engine.call_after(
                self.config.cache_update_flush_interval,
                self._flush_timer_fired,
                self.node.process.incarnation,
            )

    def _flush_timer_fired(self, incarnation: int) -> None:
        self._batch_timer_armed = False
        if self.node.process.incarnation != incarnation:
            return
        self._flush_cache_updates()

    def _flush_cache_updates(self) -> None:
        if not self._update_batch or self.membership is None:
            self._update_batch = []
            self._batch_trace = 0
            return
        batch, self._update_batch = self._update_batch, []
        trace, self._batch_trace = self._batch_trace, 0
        size = self.config.cache_update_bytes(len(batch))
        for peer in self.membership.peers():
            channel = self.transport.channel(peer)
            if channel is None or channel.broken:
                continue
            # Broadcasts ride the helper send thread; backpressure is
            # absorbed by the transport queue rather than blocking here.
            channel.send(
                Message(
                    "cache-updates", size, payload=list(batch), trace_id=trace
                )
            )

    def _apply_cache_updates(
        self, peer: str, batch: List[Tuple[str, str]]
    ) -> None:
        self.node.cpu.charge(self.config.http.directory_update * len(batch))
        for action, file_id in batch:
            if action == "add":
                self.directory[file_id] = peer
            elif self.directory.get(file_id) == peer:
                del self.directory[file_id]

    def _apply_cache_info(self, payload: Tuple[str, List[str]]) -> None:
        peer, files = payload
        self.node.cpu.charge(self.config.http.directory_update * len(files))
        for file_id in files:
            self.directory[file_id] = peer

    # ------------------------------------------------------------------
    # Membership plumbing
    # ------------------------------------------------------------------
    def _on_break(self, peer: str, reason: str) -> None:
        if self.membership is not None:
            self.membership.exclude(peer, f"connection-break:{reason}")

    def _on_accept(self, peer: str) -> None:
        """A peer connected to us.

        At cold start this is just the other half of the full-mesh setup.
        When the peer was *not* in our membership — a genuine rejoin — we
        include it and stream it our caching information (the paper's
        rejoin state transfer; the warming transient of stages B/D/G).
        """
        if self.membership is None:
            return
        is_rejoin = not self.membership.is_member(peer)
        self.membership.include(peer, broadcast=is_rejoin)
        channel = self.transport.channel(peer)
        if not is_rejoin or channel is None or self.cache is None:
            return
        cfg = self.config
        files = list(self.cache.keys())
        per_chunk = max(
            1,
            (cfg.cache_info_max_bytes - cfg.cache_info_base_bytes)
            // cfg.cache_info_entry_bytes,
        )
        chunks = [
            files[i : i + per_chunk] for i in range(0, len(files), per_chunk)
        ] or [[]]
        for chunk in chunks:
            size = cfg.cache_info_base_bytes + cfg.cache_info_entry_bytes * len(chunk)
            channel.send(
                Message("cache-info", size, payload=(self.node_id, chunk))
            )

    def _on_datagram(self, peer: str, msg: Message) -> None:
        if self.membership is not None:
            self.membership.handle_datagram(peer, msg)

    def _on_fatal(self, reason: str) -> None:
        """PRESS's fail-fast policy: fatal comm errors kill the process."""
        self._fail_fasts.inc()
        self.annotations.mark("fail-fast", f"{self.node_id} ({reason})")
        self.node.process.exit(f"fail-fast:{reason}")

    def _handle_exclusion(self, peer: str, reason: str) -> None:
        self.transport.close_channel(peer)
        self.directory = {
            f: owner for f, owner in self.directory.items() if owner != peer
        }
        stale = [
            rid
            for rid, (_req, owner) in self.pending_forwards.items()
            if owner == peer
        ]
        spans = self.engine.bus.spans
        for rid in stale:
            del self.pending_forwards[rid]
            if spans is not None:
                # The reconfiguration abandoned this forward; its client
                # times out.  Charged to membership in the attribution.
                spans.end_key(
                    ("fwd", rid), self.engine.now, "purged", peer=peer
                )

    def _handle_inclusion(self, peer: str) -> None:
        self.annotations.mark("member-included", f"{self.node_id} += {peer}")

    def _handle_joined(self, members: List[str]) -> None:
        pass  # cache-info flows in via _on_accept on the peers' side

    def _handle_join_gave_up(self) -> None:
        pass  # singleton operation: keep serving our DNS share alone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        return list(self.membership.members) if self.membership else []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PressServer {self.node_id} members={self.members}>"
