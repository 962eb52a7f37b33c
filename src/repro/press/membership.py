"""Cluster membership: directed ring, heartbeats, exclusion, rejoin.

Implements the paper's reconfiguration protocols:

* Nodes are organized in a **directed ring** (sorted by node id); each
  node heartbeats only its successor (TCP-PRESS-HB), and a node that
  misses ``heartbeat_threshold`` consecutive beats from its predecessor
  declares the predecessor failed.
* All versions also exclude a peer whenever the transport reports a
  **broken connection** — the only trigger for TCP-PRESS and the VIA
  versions.
* Exclusions are broadcast so the surviving members agree on the new
  ring.
* **Rejoin**: a restarting node broadcasts a join request; the *lowest-id
  active member* answers with the current configuration; the joiner then
  reestablishes connections to every member.  Crucially, join requests
  from a node the cluster still believes to be a member are
  **disregarded** — the timing hole that leaves a hard-rebooted TCP-PRESS
  node stranded (Figure 3).
* PRESS assumes nodes fail but links do not, so partitions are **never
  merged** automatically; that requires an operator reset (Figure 2's
  surprise).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..obs.events import (
    MEMBERSHIP_EXCLUDE,
    MEMBERSHIP_INCLUDE,
    MEMBERSHIP_JOINED,
    MEMBERSHIP_JOIN_GAVE_UP,
    MEMBERSHIP_REMERGE,
)
from ..obs.metrics import bound_counter
from ..osim.process import SimProcess
from ..sim.engine import Engine
from ..transports.base import Message

#: Datagram payload sizes (bytes) for the control protocol.
_HB_BYTES = 32
_JOIN_BYTES = 48
_CTRL_BYTES = 64


class Membership:
    """One node's view of the cluster, plus the protocols that update it."""

    def __init__(
        self,
        engine: Engine,
        self_id: str,
        all_ids: List[str],
        process: SimProcess,
        send_datagram: Callable[[str, Message], None],
        use_heartbeats: bool,
        heartbeat_interval: float,
        heartbeat_threshold: int,
        join_retry_interval: float,
        join_max_retries: int,
        on_exclude: Callable[[str, str], None],
        on_include: Callable[[str], None],
        on_joined: Callable[[List[str]], None],
        on_join_gave_up: Callable[[], None],
        connect_to: Callable[[str, Callable[[bool], None]], None],
        annotate: Callable[[str, str], None],
        auto_remerge: bool = False,
        remerge_probe_interval: float = 30.0,
    ):
        self.engine = engine
        self.self_id = self_id
        self.all_ids = sorted(all_ids)
        self.process = process
        self.send_datagram = send_datagram
        self.use_heartbeats = use_heartbeats
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_threshold = heartbeat_threshold
        self.join_retry_interval = join_retry_interval
        self.join_max_retries = join_max_retries
        self.on_exclude = on_exclude
        self.on_include = on_include
        self.on_joined = on_joined
        self.on_join_gave_up = on_join_gave_up
        self.connect_to = connect_to
        self.annotate = annotate

        self.auto_remerge = auto_remerge
        self.remerge_probe_interval = remerge_probe_interval
        self.members: List[str] = []
        self._last_heard: Dict[str, float] = {}
        self._ring_changed_at = 0.0
        self._incarnation = 0
        self._joining = False
        self._join_connects_left = 0
        self.joined_cluster = False
        self._exclusions = bound_counter(
            engine, "press.membership.exclusions", node=self_id
        )
        self._remerges = bound_counter(
            engine, "press.membership.remerges", node=self_id
        )

    @property
    def exclusions(self) -> int:
        return self._exclusions.value

    @property
    def remerges(self) -> int:
        return self._remerges.value

    def _publish(self, name: str, **fields) -> None:
        self.engine.bus.publish(name, node=self.self_id, **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Cold start: every configured node is a member."""
        self._incarnation = self.process.incarnation
        self.members = list(self.all_ids)
        self.joined_cluster = True
        self._reset_heartbeat_baselines()
        self._start_heartbeats()
        self._start_remerge_probes()

    def start_join(self) -> None:
        """Restart: become a singleton and run the join protocol."""
        self._incarnation = self.process.incarnation
        self.members = [self.self_id]
        self.joined_cluster = False
        self._joining = True
        self._start_heartbeats()
        self._start_remerge_probes()
        self._join_attempt(0)

    def _fresh(self) -> bool:
        """Guard for timers that may outlive the process incarnation."""
        return (
            self.process.alive
            and self.process.incarnation == self._incarnation
        )

    # ------------------------------------------------------------------
    # Ring geometry
    # ------------------------------------------------------------------
    def ring(self) -> List[str]:
        return sorted(self.members)

    def successor(self) -> Optional[str]:
        ring = self.ring()
        if len(ring) < 2:
            return None
        i = ring.index(self.self_id)
        return ring[(i + 1) % len(ring)]

    def predecessor(self) -> Optional[str]:
        ring = self.ring()
        if len(ring) < 2:
            return None
        i = ring.index(self.self_id)
        return ring[i - 1]

    def peers(self) -> List[str]:
        return [m for m in self.members if m != self.self_id]

    def is_member(self, node_id: str) -> bool:
        return node_id in self.members

    @property
    def singleton(self) -> bool:
        return len(self.members) <= 1

    # ------------------------------------------------------------------
    # Exclusion
    # ------------------------------------------------------------------
    def exclude(self, peer: str, reason: str, broadcast: bool = True) -> None:
        """Remove ``peer`` from the local view and tell the others."""
        if peer == self.self_id or peer not in self.members:
            return
        self.members.remove(peer)
        self._exclusions.inc()
        self._last_heard.pop(peer, None)
        self._reset_heartbeat_baselines()
        self._publish(MEMBERSHIP_EXCLUDE, peer=peer, reason=reason)
        self.annotate("reconfigured", f"{self.self_id} excluded {peer} ({reason})")
        self.on_exclude(peer, reason)
        if broadcast:
            for member in self.peers():
                self.send_datagram(
                    member,
                    Message(
                        "member-exclude", _CTRL_BYTES, payload=(peer, reason)
                    ),
                )

    def include(self, peer: str, broadcast: bool = False) -> None:
        """Add ``peer`` to the view.

        The member that *accepts* a rejoiner's connection broadcasts the
        inclusion so members that were themselves rejoining around the
        same time (e.g. after a remote-write fault killed two processes)
        still converge on one view.
        """
        if peer == self.self_id or peer in self.members:
            return
        self.members.append(peer)
        self._publish(MEMBERSHIP_INCLUDE, peer=peer)
        self._reset_heartbeat_baselines()
        self.on_include(peer)
        if broadcast:
            for member in self.peers():
                if member != peer:
                    self.send_datagram(
                        member,
                        Message("member-include", _CTRL_BYTES, payload=peer),
                    )

    # ------------------------------------------------------------------
    # Heartbeats (TCP-PRESS-HB)
    # ------------------------------------------------------------------
    def _start_heartbeats(self) -> None:
        if not self.use_heartbeats:
            return
        incarnation = self._incarnation
        self.engine.call_after(
            self.heartbeat_interval, self._heartbeat_tick, incarnation
        )

    def _reset_heartbeat_baselines(self) -> None:
        # After any ring change the new predecessor gets a fresh grace
        # period; otherwise a reconfiguration would cascade instantly.
        self._ring_changed_at = self.engine.now

    def _heartbeat_tick(self, incarnation: int) -> None:
        if incarnation != self._incarnation or not self._fresh():
            return
        # The heartbeat send/receive runs on PRESS's helper threads, so it
        # proceeds even when the main loop is blocked — but not when the
        # process is stopped.
        if self.process.running:
            succ = self.successor()
            if succ is not None:
                self.send_datagram(
                    succ, Message("heartbeat", _HB_BYTES, payload=self.self_id)
                )
            self._check_predecessor()
        self.engine.call_after(
            self.heartbeat_interval, self._heartbeat_tick, incarnation
        )

    def _check_predecessor(self) -> None:
        pred = self.predecessor()
        if pred is None:
            return
        window = self.heartbeat_threshold * self.heartbeat_interval
        baseline = max(self._last_heard.get(pred, 0.0), self._ring_changed_at)
        if self.engine.now - baseline > window:
            self.exclude(pred, "missed-heartbeats")

    # ------------------------------------------------------------------
    # EXTENSION: automatic partition re-merge (§9's "rigorous membership
    # algorithm" future work).  Stock PRESS never merges partitions; with
    # ``auto_remerge`` each node periodically probes configured nodes it
    # has excluded.  A probed node replies with its partition; if the
    # prober's partition should yield — it is smaller, or on a tie its
    # minimum id is larger — the prober restarts itself, and the normal
    # join protocol folds it into the surviving partition.  Deciding by
    # (size, min-id) makes exactly one side of any split yield.
    # ------------------------------------------------------------------
    def _start_remerge_probes(self) -> None:
        if not self.auto_remerge:
            return
        self.engine.call_after(
            self.remerge_probe_interval, self._remerge_tick, self._incarnation
        )

    def _remerge_tick(self, incarnation: int) -> None:
        if incarnation != self._incarnation or not self._fresh():
            return
        if self.process.running and not self._joining:
            for node in self.all_ids:
                if node != self.self_id and node not in self.members:
                    self.send_datagram(
                        node,
                        Message(
                            "remerge-probe", _CTRL_BYTES, payload=self.self_id
                        ),
                    )
        self.engine.call_after(
            self.remerge_probe_interval, self._remerge_tick, incarnation
        )

    def _handle_remerge_probe(self, prober: str) -> None:
        if prober in self.members or self._joining:
            return
        self.send_datagram(
            prober,
            Message(
                "remerge-info", _CTRL_BYTES, payload=list(self.members)
            ),
        )

    def _handle_remerge_info(self, peer_members: List[str]) -> None:
        if self._joining or not self.auto_remerge:
            return
        mine, theirs = self.ring(), sorted(peer_members)
        if not theirs or set(theirs) & set(self.members):
            return  # stale information or views already overlap
        yields = len(mine) < len(theirs) or (
            len(mine) == len(theirs) and mine[0] > theirs[0]
        )
        if yields:
            self._remerges.inc()
            self._publish(MEMBERSHIP_REMERGE)
            self.annotate("auto-remerge", f"{self.self_id} yields to merge")
            self.process.exit("auto-remerge")

    # ------------------------------------------------------------------
    # Join protocol
    # ------------------------------------------------------------------
    def _join_attempt(self, attempt: int) -> None:
        if not self._fresh() or not self._joining:
            return
        if attempt >= self.join_max_retries:
            self._joining = False
            self._publish(MEMBERSHIP_JOIN_GAVE_UP)
            self.annotate("join-gave-up", self.self_id)
            self.on_join_gave_up()
            return
        for node in self.all_ids:
            if node != self.self_id:
                self.send_datagram(
                    node, Message("join-request", _JOIN_BYTES, payload=self.self_id)
                )
        self.engine.call_after(
            self.join_retry_interval, self._join_attempt, attempt + 1
        )

    def _handle_join_request(self, joiner: str) -> None:
        if joiner in self.members:
            return  # still believed to be a member: disregarded (the
            # TCP-PRESS hard-reboot timing hole)
        active = self.ring()
        if active and active[0] != self.self_id:
            return  # only the lowest-id active member responds
        self.send_datagram(
            joiner,
            Message("join-response", _CTRL_BYTES, payload=list(self.members)),
        )

    def _handle_join_response(self, members: List[str]) -> None:
        if not self._joining or not self._fresh():
            return
        self._joining = False
        targets = [m for m in members if m != self.self_id]
        if not targets:
            self.joined_cluster = True
            self.on_joined(list(self.members))
            return
        # A membership object lives for exactly one process incarnation
        # (the server rebuilds it on start) and a second join response is
        # gated on ``_joining``, so one pending-connect counter suffices;
        # instance state instead of a closure keeps the pending connect
        # callbacks picklable for simulation snapshots.
        self._join_connects_left = len(targets)
        for peer in targets:
            self.connect_to(peer, _JoinConnectCb(self, peer))

    def _join_connected(self, peer: str, ok: bool) -> None:
        if not self._fresh():
            return
        if ok:
            self.include(peer)
        self._join_connects_left -= 1
        if self._join_connects_left == 0:
            self.joined_cluster = True
            self._publish(MEMBERSHIP_JOINED, members=sorted(self.members))
            self.annotate("rejoined", self.self_id)
            self.on_joined(list(self.members))

    # ------------------------------------------------------------------
    # Datagram dispatch (wired to transport.on_datagram by the server)
    # ------------------------------------------------------------------
    def handle_datagram(self, peer: str, msg: Message) -> None:
        if msg.msg_type == "join-request":
            self._handle_join_request(msg.payload)
            return
        if msg.msg_type == "join-response":
            self._handle_join_response(msg.payload)
            return
        if msg.msg_type == "remerge-probe":
            self._handle_remerge_probe(msg.payload)
            return
        if msg.msg_type == "remerge-info":
            self._handle_remerge_info(msg.payload)
            return
        # Heartbeats and membership updates are only meaningful from
        # nodes we consider members — a node that was excluded while it
        # was hung must not fragment the healthy group when it resumes
        # and flushes its stale view.
        if peer not in self.members:
            return
        if msg.msg_type == "heartbeat":
            self._last_heard[peer] = self.engine.now
        elif msg.msg_type == "member-exclude":
            excluded, reason = msg.payload
            if excluded != self.self_id:
                self.exclude(excluded, f"broadcast:{reason}", broadcast=False)
        elif msg.msg_type == "member-include":
            included = msg.payload
            if included != self.self_id and included not in self.members:
                # Connect first; our side includes on connect success and
                # the other side includes on accept.
                self.connect_to(included, _IncludeConnectCb(self, included))

    # ------------------------------------------------------------------
    # Snapshot support (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable)."""
        return {
            "members": sorted(self.members),
            "incarnation": self._incarnation,
            "joining": self._joining,
            "joined": self.joined_cluster,
            "last_heard": {
                peer: t for peer, t in sorted(self._last_heard.items())
            },
            "exclusions": self._exclusions.value,
            "remerges": self._remerges.value,
        }


class _JoinConnectCb:
    """Pending join-protocol connect continuation (picklable, no closure)."""

    __slots__ = ("membership", "peer")

    def __init__(self, membership: Membership, peer: str):
        self.membership = membership
        self.peer = peer

    def __call__(self, ok: bool) -> None:
        self.membership._join_connected(self.peer, ok)


class _IncludeConnectCb:
    """Pending include-broadcast connect continuation."""

    __slots__ = ("membership", "peer")

    def __init__(self, membership: Membership, peer: str):
        self.membership = membership
        self.peer = peer

    def __call__(self, ok: bool) -> None:
        if ok:
            self.membership.include(self.peer)
