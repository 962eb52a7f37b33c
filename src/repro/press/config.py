"""PRESS version matrix (Table 1) and tunable server parameters.

Five versions are studied.  They share the server logic and differ in the
communication substrate, the fault-detection trigger, and the data-path
copy discipline:

===============  =========  ==========  =============  =========
version          substrate  heartbeats  remote writes  zero copy
===============  =========  ==========  =============  =========
TCP-PRESS        TCP        no          —              no
TCP-PRESS-HB     TCP        yes         —              no
VIA-PRESS-0      VIA        no          no             no
VIA-PRESS-3      VIA        no          yes            no
VIA-PRESS-5      VIA        no          yes            yes
===============  =========  ==========  =============  =========
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..transports.costs import (
    COPY_SECONDS_PER_BYTE,
    TCP_COSTS,
    VIA0_COSTS,
    VIA3_COSTS,
    VIA5_COSTS,
    TransportCosts,
)


@dataclass(frozen=True)
class HttpCosts:
    """CPU costs of the client-facing request path (per request).

    ``parse`` + ``respond_overhead`` are calibrated jointly with the
    transport costs so the 4-node cluster saturates at Table 1's
    published throughputs (see ``transports/costs.py``).
    """

    parse: float = 400e-6  # accept + parse + dispatch decision
    respond_overhead: float = 160e-6  # connection handling + headers
    respond_per_byte: float = COPY_SECONDS_PER_BYTE  # copy into client socket
    cache_insert: float = 20e-6
    directory_update: float = 2e-6

    def respond(self, nbytes: int) -> float:
        return self.respond_overhead + self.respond_per_byte * nbytes


@dataclass(frozen=True)
class PressConfig:
    """Full configuration of one PRESS version."""

    name: str
    substrate: str  # "tcp" | "via"
    use_heartbeats: bool
    remote_writes: bool
    zero_copy: bool
    transport_costs: TransportCosts
    http: HttpCosts = field(default_factory=HttpCosts)

    # cooperative caching
    cache_bytes: int = 128 * 1024 * 1024
    cache_update_msg_bytes: int = 64
    cache_update_batch: int = 16
    cache_update_flush_interval: float = 0.05
    # Caching information sent to a (re)joining peer is streamed in
    # chunks so a transfer fits transport buffering (VIA descriptors,
    # TCP receive windows) — PRESS sends it over the normal channel.
    cache_info_max_bytes: int = 8192
    cache_info_entry_bytes: int = 16
    cache_info_base_bytes: int = 256

    # membership / recovery
    heartbeat_interval: float = 5.0
    heartbeat_threshold: int = 3  # missed beats before declaring a fault
    join_retry_interval: float = 2.0
    join_max_retries: int = 5
    forward_msg_bytes: int = 256
    # Kernel listen backlog: connections beyond this queue depth are
    # refused, bounding how much doomed work piles up behind a stall.
    accept_backlog: int = 128
    # EXTENSION (off = faithful PRESS): automatic partition re-merge.
    # Stock PRESS never merges partitions (§5.2's surprise); with this
    # on, nodes probe excluded-but-configured peers and the losing side
    # of a split restarts itself into the surviving partition.
    auto_remerge: bool = False
    remerge_probe_interval: float = 30.0

    def cache_update_bytes(self, n_updates: int) -> int:
        return self.cache_update_msg_bytes + 8 * n_updates

    def max_message_bytes(self) -> int:
        """Largest message PRESS sends a peer, not counting file data."""
        return max(
            self.cache_update_bytes(self.cache_update_batch),
            self.cache_info_max_bytes,
        )

    def scaled(self, cpu_factor: float) -> "PressConfig":
        """Scale CPU costs up and byte quantities down by ``cpu_factor``.

        See ``ExperimentScale``: rates and reservoirs shrink together so
        all time constants (stall onset, detection, warm-up) match the
        full-scale system.
        """
        if cpu_factor == 1.0:
            return self
        http = replace(
            self.http,
            parse=self.http.parse * cpu_factor,
            respond_overhead=self.http.respond_overhead * cpu_factor,
            # Per-byte costs scale by factor^2: sizes shrink by the same
            # factor, keeping data-touching work in constant proportion.
            respond_per_byte=self.http.respond_per_byte * cpu_factor * cpu_factor,
            cache_insert=self.http.cache_insert * cpu_factor,
            directory_update=self.http.directory_update * cpu_factor,
        )

        def b(nbytes: int, floor: int = 8) -> int:
            return max(floor, int(nbytes / cpu_factor))

        return replace(
            self,
            transport_costs=self.transport_costs.scaled(cpu_factor),
            http=http,
            # The cache is a reservoir: it scales by factor^2 (file sizes
            # and file counts both shrink by the factor), keeping the
            # cache:working-set ratio and warm-up time scale-invariant.
            cache_bytes=max(2048, int(self.cache_bytes / (cpu_factor * cpu_factor))),
            cache_update_msg_bytes=b(self.cache_update_msg_bytes),
            cache_info_max_bytes=b(self.cache_info_max_bytes, floor=128),
            cache_info_entry_bytes=b(self.cache_info_entry_bytes, floor=2),
            cache_info_base_bytes=b(self.cache_info_base_bytes),
            forward_msg_bytes=b(self.forward_msg_bytes),
            accept_backlog=max(8, int(self.accept_backlog / cpu_factor)),
        )


#: VIA-PRESS-5 forwards file data to the client straight out of the
#: communication buffer and serves local hits out of the pinned cache —
#: no per-byte copy on the client-facing response path either.
_ZERO_COPY_HTTP = HttpCosts(respond_per_byte=0.0)

TCP_PRESS = PressConfig(
    name="TCP-PRESS",
    substrate="tcp",
    use_heartbeats=False,
    remote_writes=False,
    zero_copy=False,
    transport_costs=TCP_COSTS,
)

TCP_PRESS_HB = PressConfig(
    name="TCP-PRESS-HB",
    substrate="tcp",
    use_heartbeats=True,
    remote_writes=False,
    zero_copy=False,
    transport_costs=TCP_COSTS,
)

VIA_PRESS_0 = PressConfig(
    name="VIA-PRESS-0",
    substrate="via",
    use_heartbeats=False,
    remote_writes=False,
    zero_copy=False,
    transport_costs=VIA0_COSTS,
)

VIA_PRESS_3 = PressConfig(
    name="VIA-PRESS-3",
    substrate="via",
    use_heartbeats=False,
    remote_writes=True,
    zero_copy=False,
    transport_costs=VIA3_COSTS,
)

VIA_PRESS_5 = PressConfig(
    name="VIA-PRESS-5",
    substrate="via",
    use_heartbeats=False,
    remote_writes=True,
    zero_copy=True,
    transport_costs=VIA5_COSTS,
    http=_ZERO_COPY_HTTP,
)

#: EXTENSION (not in the paper): PRESS over the §7 "ideal" layer —
#: VIA-PRESS-5's data path plus synchronous descriptor validation, so
#: bad-parameter faults are confined to the offending call.
IDEAL_PRESS = PressConfig(
    name="IDEAL-PRESS",
    substrate="ideal",
    use_heartbeats=False,
    remote_writes=True,
    zero_copy=True,
    transport_costs=VIA5_COSTS,
    http=_ZERO_COPY_HTTP,
)

ALL_VERSIONS: Dict[str, PressConfig] = {
    cfg.name: cfg
    for cfg in (TCP_PRESS, TCP_PRESS_HB, VIA_PRESS_0, VIA_PRESS_3, VIA_PRESS_5)
}

#: The paper's five versions plus the §7 extension.
ALL_VERSIONS_EXTENDED: Dict[str, PressConfig] = {
    **ALL_VERSIONS,
    IDEAL_PRESS.name: IDEAL_PRESS,
}

#: Near-peak throughputs the paper reports for the 4-node testbed
#: (Table 1), used by the Table-1 experiment to compare shapes.
PAPER_TABLE1_THROUGHPUT = {
    "TCP-PRESS": 4965.0,
    "TCP-PRESS-HB": 4965.0,
    "VIA-PRESS-0": 6031.0,
    "VIA-PRESS-3": 6221.0,
    "VIA-PRESS-5": 7058.0,
}
