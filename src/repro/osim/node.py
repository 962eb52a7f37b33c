"""A cluster node: CPU, kernel, NIC, disks, and the hosted process.

The node ties the OS pieces together and implements the machine-level
faults:

* **crash** (hard reboot): the NIC drops off the fabric, the process dies
  without running any cleanup, all queued work vanishes; after
  ``reboot_time`` the machine returns and the restart daemon brings the
  application back up (Mendosus "starts another PRESS process
  automatically").
* **freeze / unfreeze** (node hang): the CPU stops consuming work and the
  hosted process stops, but the NIC stays powered and the kernel keeps
  acknowledging at the TCP level — which is exactly why TCP-PRESS sees no
  connection break during a hang.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.nic import Nic
from ..obs.events import NODE_CRASH, NODE_REBOOT
from ..obs.metrics import bound_counter
from ..sim.engine import Engine
from ..sim.resources import Resource
from .cpu import WorkQueue
from .memory import KernelMemory, PinnableMemory
from .process import RestartDaemon, SimProcess

#: Default machine parameters mirror the testbed: PIII-800, 206 MB RAM,
#: two SCSI disks, 3-minute hard reboot.
DEFAULT_RAM_BYTES = 206 * 1024 * 1024
DEFAULT_REBOOT_TIME = 60.0
DEFAULT_DISK_ACCESS_TIME = 0.008  # 10k rpm SCSI, seek + rotation
DEFAULT_DISK_THREADS = 2


class Node:
    """One machine of the cluster (or a client machine)."""

    def __init__(
        self,
        engine: Engine,
        node_id: str,
        nic: Nic,
        ram_bytes: int = DEFAULT_RAM_BYTES,
        reboot_time: float = DEFAULT_REBOOT_TIME,
        restart_delay: float = 5.0,
        disk_threads: int = DEFAULT_DISK_THREADS,
        disk_access_time: float = DEFAULT_DISK_ACCESS_TIME,
    ):
        self.engine = engine
        self.node_id = node_id
        self.nic = nic
        self.kernel_memory = KernelMemory()
        self.pinnable = PinnableMemory(physical_bytes=ram_bytes)
        self.cpu = WorkQueue(engine, name=f"{node_id}.cpu")
        self.process = SimProcess(engine, name=f"{node_id}.press")
        self.daemon = RestartDaemon(engine, self.process, restart_delay)
        self.disks = Resource(engine, capacity=disk_threads)
        self.disk_access_time = disk_access_time
        self.reboot_time = reboot_time
        self.up = True
        self.frozen = False
        self._crashes = bound_counter(engine, "osim.node.crashes", node=node_id)
        self.on_reboot_complete: List[Callable[[], None]] = []

        # The process lifecycle drives the CPU queue: a dead process
        # executes nothing; a stopped one holds its work.
        self.process.on_stop.append(self.cpu.freeze)
        self.process.on_cont.append(self.cpu.unfreeze)
        self.process.on_death.append(self._on_process_death)
        self.process.on_start.append(self.cpu.resurrect)

    def _on_process_death(self, reason: str) -> None:
        """Process lifecycle hook: a dead process executes nothing."""
        self.cpu.kill()

    # ------------------------------------------------------------------
    # Machine-level faults
    # ------------------------------------------------------------------
    def crash(self, transient: bool = True) -> None:
        """Hard reboot.  ``transient=False`` keeps the node down forever."""
        if not self.up:
            return
        self.up = False
        self._crashes.inc()
        self.engine.bus.publish(NODE_CRASH, node=self.node_id)
        self.nic.power_off()
        self.daemon.disable()
        self.process.exit("node-crash")
        if transient:
            self.engine.call_after(self.reboot_time, self._reboot)

    @property
    def crashes(self) -> int:
        return self._crashes.value

    def _reboot(self) -> None:
        self.up = True
        self.frozen = False
        self.engine.bus.publish(NODE_REBOOT, node=self.node_id)
        # Fresh kernel: memory faults do not survive a reboot.
        self.kernel_memory = KernelMemory()
        self.pinnable = PinnableMemory(physical_bytes=self.pinnable.physical_bytes)
        self.nic.power_on()
        self.daemon.enable()
        for hook in list(self.on_reboot_complete):
            hook()

    def freeze(self) -> None:
        """Node hang: OS scheduler stops, NIC/kernel ACKs keep flowing."""
        if not self.up or self.frozen:
            return
        self.frozen = True
        self.process.sigstop()

    def unfreeze(self) -> None:
        if not self.frozen:
            return
        self.frozen = False
        self.process.sigcont()

    # ------------------------------------------------------------------
    # Disk service
    # ------------------------------------------------------------------
    def disk_read(self, nbytes: int, done: Callable, *args) -> None:
        """Read ``nbytes`` through a disk thread, then call ``done(*args)``.

        Models the PRESS disk-helper threads: bounded parallelism, fixed
        access latency plus transfer time.  Arguments are passed
        positionally (no closures), so in-flight reads pickle cleanly in
        simulation snapshots.
        """
        grant = self.disks.acquire()
        grant.add_callback(_DiskGrantCb(self, nbytes, done, args))

    def _disk_granted(self, nbytes: int, done: Callable, args: tuple) -> None:
        service = self.disk_access_time + nbytes / 40_000_000  # 40 MB/s
        self.engine.call_after(service, self._disk_done, done, args)

    def _disk_done(self, done: Callable, args: tuple) -> None:
        self.disks.release()
        if self.up and self.process.running:
            done(*args)

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see repro.sim.snapshot)."""
        return {
            "up": self.up,
            "frozen": self.frozen,
            "process_running": self.process.running,
            "crashes": self._crashes.value,
            "cpu": self.cpu.snapshot_state(),
            "disks_in_use": self.disks.in_use,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        if self.frozen:
            state = "frozen"
        return f"<Node {self.node_id} {state}>"


class _DiskGrantCb:
    """Pending disk-thread grant continuation (picklable, no closure)."""

    __slots__ = ("node", "nbytes", "done", "args")

    def __init__(self, node: Node, nbytes: int, done: Callable, args: tuple):
        self.node = node
        self.nbytes = nbytes
        self.done = done
        self.args = args

    def __call__(self, _ev) -> None:
        self.node._disk_granted(self.nbytes, self.done, self.args)
