"""Cluster assembly: nodes, transports, servers, clients, injector.

:class:`PressCluster` is the top-level harness object — the equivalent of
the paper's testbed.  It wires a PRESS version onto four simulated nodes
behind a cLAN switch, attaches client machines driving the synthetic
trace, and exposes the fault injector plus the operator actions (reset)
that phase-1 experiments need.

:class:`ExperimentScale` trades wall-clock cost for fidelity: CPU costs
are multiplied by ``cpu_factor`` and the offered load divided by it, so a
``cpu_factor=10`` run simulates a cluster with exactly the same *time*
behaviour (detection latencies, timeouts, stage durations) at one tenth
the event rate.  Reported throughputs are rescaled by ``report_factor``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..faults.injector import Mendosus
from ..net.fabric import Fabric
from ..osim.node import DEFAULT_DISK_ACCESS_TIME, Node
from ..sim.engine import Engine
from ..sim.monitor import Annotations, ThroughputMonitor
from ..sim.rng import RngRegistry
from ..transports.base import Transport
from ..transports.tcp import TcpTransport
from ..transports.via import ViaTransport
from ..workload.client import Workload
from ..workload.trace import FileSet
from .analysis import CapacityEstimate, estimate_capacity
from .config import PressConfig
from .server import PressServer


@dataclass(frozen=True)
class ExperimentScale:
    """Fidelity/wall-clock knob.

    ``cpu_factor`` divides the request rate (by multiplying every CPU
    cost) **and** divides every byte quantity — file sizes, socket
    buffers, TCP segments, VIA rings and credits.  Because both the
    producer rates (bytes/s) and the reservoirs (bytes) shrink together,
    every *time* constant of the system — how long until a stalled peer's
    buffers fill and block the main loop, how long until VIA credits
    exhaust, retransmission backoff, heartbeat detection, client
    timeouts — matches the full-scale system.  Only the event rate (and
    wall-clock cost) drops.

    Measured throughputs multiply by ``report_factor`` for comparison
    with the paper's numbers.
    """

    cpu_factor: float = 10.0

    def __post_init__(self) -> None:
        # ``not > 0`` also rejects NaN, which every comparison fails.
        if not self.cpu_factor > 0:
            raise ValueError(
                f"scale (cpu_factor) must be > 0, got {self.cpu_factor}"
            )

    @property
    def report_factor(self) -> float:
        """Multiply measured rates by this to compare with the paper."""
        return self.cpu_factor

    def bytes_(self, nbytes: int, floor: int = 16) -> int:
        """Scale a *message/file size* down by the factor, with a floor."""
        return max(floor, int(nbytes / self.cpu_factor))

    def reservoir(self, nbytes: int, floor: int) -> int:
        """Scale a *buffer* down by the factor **squared**, with a floor.

        Byte rates shrink by factor² (request rate × message size both
        shrink by the factor), so reservoirs must too — otherwise
        buffer-fill times (the onset of the paper's stalls) would stretch
        with the scale.  The floor keeps a buffer able to hold a few
        whole messages.
        """
        return max(floor, int(nbytes / (self.cpu_factor * self.cpu_factor)))

    def count(self, n: int, floor: int = 4) -> int:
        """Scale a discrete credit/slot count down, with a floor."""
        return max(floor, int(n / self.cpu_factor))

    def file_bytes(self) -> int:
        from ..workload.trace import DEFAULT_FILE_BYTES

        return self.bytes_(DEFAULT_FILE_BYTES, floor=32)

    def tcp_params(
        self, base: "TcpParams" = None, message_bytes: int = 0
    ) -> "TcpParams":
        from ..transports.tcp.params import DEFAULT_TCP_PARAMS, TcpParams

        base = base or DEFAULT_TCP_PARAMS
        # A socket buffer must hold a couple of framed file messages, and
        # the largest other message once framed (the file term binds up
        # to scale 200; past it the message floors do).
        buf_floor = max(
            int(2.5 * (self.file_bytes() + base.header_size)),
            message_bytes + base.header_size,
        )
        return dataclasses.replace(
            base,
            segment_size=self.bytes_(base.segment_size, floor=64),
            sndbuf_bytes=self.reservoir(base.sndbuf_bytes, floor=buf_floor),
            rcvbuf_bytes=self.reservoir(base.rcvbuf_bytes, floor=buf_floor),
            window_bytes=self.reservoir(base.window_bytes, floor=buf_floor),
        )

    def via_params(self, base: "ViaParams" = None) -> "ViaParams":
        from ..transports.via.params import DEFAULT_VIA_PARAMS, ViaParams

        base = base or DEFAULT_VIA_PARAMS
        return dataclasses.replace(
            base,
            credits=self.count(base.credits, floor=4),
            buffer_bytes=self.bytes_(base.buffer_bytes, floor=self.file_bytes() + 64),
            send_ring_bytes=self.reservoir(base.send_ring_bytes, floor=512),
            app_queue_limit=self.count(base.app_queue_limit, floor=8),
        )

    def fileset(self) -> "FileSet":
        """Scaled file population.

        The *count* of files shrinks with the factor so cache-warming
        time (entries to fetch ÷ fetch rate) matches full scale; sizes
        shrink with the factor as everywhere else; the Zipf skew and the
        working-set:cache ratio are preserved exactly.
        """
        from ..workload.trace import DEFAULT_N_FILES, FileSet

        return FileSet(
            n_files=max(64, int(DEFAULT_N_FILES / self.cpu_factor)),
            file_bytes=self.file_bytes(),
        )


#: Paper-exact cost magnitudes; heavy (use for final calibration runs).
FULL_SCALE = ExperimentScale(cpu_factor=1.0)
#: Default for experiments: ~10x cheaper, identical time behaviour.
STANDARD_SCALE = ExperimentScale(cpu_factor=10.0)
#: For benchmarks: ~50x cheaper.
FAST_SCALE = ExperimentScale(cpu_factor=50.0)
#: For unit/integration tests.
SMOKE_SCALE = ExperimentScale(cpu_factor=200.0)


class PressCluster:
    """A PRESS deployment plus its workload and fault injector."""

    def __init__(
        self,
        config: PressConfig,
        n_nodes: int = 4,
        scale: ExperimentScale = STANDARD_SCALE,
        seed: int = 0,
        fileset: Optional[FileSet] = None,
        utilization: float = 0.7,
        bucket_width: float = 1.0,
        n_clients: int = 2,
        restart_delay: float = 5.0,
        reboot_time: float = 60.0,
        tcp_params=None,
        via_params=None,
        fastpath: bool = True,
    ):
        self.config_base = config
        self.scale = scale
        self.config = config.scaled(scale.cpu_factor)
        self.engine = Engine()
        self.bus = self.engine.bus
        self.metrics = self.bus.metrics
        self.rng = RngRegistry(seed)
        self.fabric = Fabric(self.engine, fastpath=fastpath)
        self.fileset = fileset if fileset is not None else scale.fileset()
        self.annotations = Annotations(self.engine)
        self.monitor = ThroughputMonitor(self.engine, bucket_width=bucket_width)
        self.node_ids = [f"node{i}" for i in range(n_nodes)]
        self.utilization = utilization
        self._tcp_params = scale.tcp_params(
            tcp_params, self.config.max_message_bytes()
        )
        self._via_params = scale.via_params(via_params)

        self.capacity: CapacityEstimate = estimate_capacity(
            self.config, self.fileset, n_nodes
        )

        self.nodes: Dict[str, Node] = {}
        self.transports: Dict[str, Transport] = {}
        self.servers: Dict[str, PressServer] = {}
        for node_id in self.node_ids:
            nic = self.fabric.attach(node_id)
            node = Node(
                self.engine,
                node_id,
                nic,
                restart_delay=restart_delay,
                reboot_time=reboot_time,
                # Disk service time scales with CPU costs so that disk
                # *utilization* (misses/s x access time) matches the
                # full-scale system — a splintered singleton must hit its
                # disk bound at every scale.
                disk_access_time=DEFAULT_DISK_ACCESS_TIME * scale.cpu_factor,
            )
            self.nodes[node_id] = node
            self.transports[node_id] = self._make_transport(node)
            self.servers[node_id] = PressServer(
                engine=self.engine,
                node=node,
                transport=self.transports[node_id],
                config=self.config,
                fileset=self.fileset,
                all_server_ids=self.node_ids,
                annotations=self.annotations,
            )

        self.workload = Workload(
            engine=self.engine,
            fabric=self.fabric,
            server_ids=self.node_ids,
            fileset=self.fileset,
            monitor=self.monitor,
            rng=self.rng.stream("workload"),
            total_rate=self.capacity.offered_rate(utilization),
            n_clients=n_clients,
        )

        self.mendosus = Mendosus(
            engine=self.engine,
            fabric=self.fabric,
            nodes=self.nodes,
            transports=self.transports,
            annotations=self.annotations,
        )
        self._started = False

    # ------------------------------------------------------------------
    # Assembly details
    # ------------------------------------------------------------------
    def _make_transport(self, node: Node) -> Transport:
        if self.config.substrate == "tcp":
            return TcpTransport(
                self.engine,
                node,
                costs=self.config.transport_costs,
                params=self._tcp_params,
            )
        cls = ViaTransport
        if self.config.substrate == "ideal":
            from ..transports.ideal import IdealTransport

            cls = IdealTransport
        return cls(
            self.engine,
            node,
            costs=self.config.transport_costs,
            params=self._via_params,
            remote_writes=self.config.remote_writes,
        )

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def start(self, prewarm: bool = True) -> None:
        """Boot every node and begin the client load.

        ``prewarm`` starts the run in the post-warm-up steady state the
        paper measures in: the most popular files are partitioned across
        the node caches and every directory already knows the placement.
        """
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for node in self.nodes.values():
            node.process.start()
        if prewarm:
            self.prewarm()
        self.workload.start()

    def prewarm(self) -> None:
        """Load caches + directories with the steady-state placement."""
        size = self.fileset.file_bytes
        per_node = max(1, int(0.95 * self.config.cache_bytes / size))
        n = len(self.node_ids)
        total = min(self.fileset.n_files, per_node * n)
        # Interleave by popularity rank so each node holds a slice of
        # every popularity band (what cooperative LRU converges to).
        assignment: Dict[str, List[str]] = {nid: [] for nid in self.node_ids}
        for i in range(total):
            assignment[self.node_ids[i % n]].append(self.fileset.file_name(i))
        placements: List[tuple] = []
        for nid, files in assignment.items():
            loaded = self.servers[nid].cache.preload(files, size)
            placements.append((nid, files[:loaded]))
        for server in self.servers.values():
            for nid, files in placements:
                if nid == server.node_id:
                    continue
                for f in files:
                    server.directory[f] = nid

    def run_until(self, t: float) -> None:
        self.engine.run(until=t)

    # ------------------------------------------------------------------
    # Operator actions
    # ------------------------------------------------------------------
    def membership_views(self) -> Dict[str, frozenset]:
        """Each running server's current view of the membership."""
        views = {}
        for node_id, server in self.servers.items():
            if self.nodes[node_id].process.running and server.membership:
                views[node_id] = frozenset(server.membership.members)
        return views

    def is_partitioned(self) -> bool:
        full = frozenset(self.node_ids)
        views = self.membership_views()
        if len(views) < len(self.node_ids):
            return True  # someone is down/hung
        return any(v != full for v in views.values())

    def operator_reset(self) -> bool:
        """Restart every process outside the largest coherent sub-cluster.

        The paper: "Return to normal operation requires the intervention
        of an administrator to restart all but one of the sub-clusters."
        Returns True when a reset was actually needed.
        """
        full = frozenset(self.node_ids)
        views = self.membership_views()
        if len(views) == len(self.node_ids) and all(
            v == full for v in views.values()
        ):
            return False
        self.annotations.mark("operator-reset", "restarting stray sub-clusters")
        # The largest agreeing group survives; everyone else restarts.
        groups: Dict[frozenset, List[str]] = {}
        for node_id, view in views.items():
            groups.setdefault(view, []).append(node_id)
        keep: List[str] = max(groups.values(), key=len) if groups else []
        for node_id in self.node_ids:
            if node_id in keep:
                continue
            process = self.nodes[node_id].process
            if process.alive:
                process.exit("operator-reset")
            # dead processes restart via their daemon on their own
        return True

    # ------------------------------------------------------------------
    # Snapshot support (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest over the whole cluster.

        Aggregates every Snapshottable component: engine clock/seq, RNG
        stream positions, fabric/link serializer clocks, per-node
        CPU/disk state, transport channel states, and each server's
        cache and membership.  The snapshot and warm-start tests check
        a checkpoint round trip by comparing this digest before capture
        and after restore (see :func:`repro.sim.snapshot.state_digest`);
        nothing compares it at run time.
        """
        servers = {}
        for node_id, server in sorted(self.servers.items()):
            servers[node_id] = {
                "cache": (
                    server.cache.snapshot_state()
                    if server.cache is not None
                    else None
                ),
                "membership": (
                    server.membership.snapshot_state()
                    if server.membership is not None
                    else None
                ),
                "local_serves": server.local_serves,
                "remote_serves": server.remote_serves,
            }
        return {
            "config": self.config.name,
            "engine": self.engine.snapshot_state(),
            "rng": self.rng.snapshot_state(),
            "fabric": self.fabric.snapshot_state(),
            "nodes": {
                node_id: node.snapshot_state()
                for node_id, node in sorted(self.nodes.items())
            },
            "transports": {
                node_id: t.snapshot_state()
                for node_id, t in sorted(self.transports.items())
            },
            "servers": servers,
            "started": self._started,
        }

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def measured_rate(self, start: float, end: float) -> float:
        """Client-observed good throughput, rescaled to paper units."""
        return self.monitor.mean_rate(start, end) * self.scale.report_factor

    def snapshot_serves(self) -> int:
        """Total requests served (responses shipped) across the cluster."""
        return sum(
            s.local_serves + s.remote_serves for s in self.servers.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PressCluster {self.config.name} n={len(self.node_ids)}"
            f" t={self.engine.now:.1f}>"
        )
