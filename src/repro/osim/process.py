"""Processes, signals, and the restart daemon.

Mendosus injects application-level faults through a per-node daemon: the
daemon starts the server process, sends SIGSTOP/SIGCONT to hang/resume it,
kills it to crash it, and restarts it when it dies (the paper's recovery
path: "recovery, achieved by restarting the application").
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from ..obs.events import PROCESS_EXIT, PROCESS_RESTART
from ..sim.engine import Engine


class ProcessState(enum.Enum):
    RUNNING = "running"
    STOPPED = "stopped"  # SIGSTOP'd
    DEAD = "dead"


class SimProcess:
    """A supervised application process.

    The hosting application wires up lifecycle hooks:

    * ``on_stop`` / ``on_cont`` — SIGSTOP / SIGCONT delivery,
    * ``on_death`` — the process died (crash, fatal error, kill),
    * ``on_start`` — a fresh incarnation began (initial start or restart).

    ``incarnation`` counts starts, letting stale timers from a previous
    life detect that they outlived their process.
    """

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.state = ProcessState.DEAD
        self.incarnation = 0
        self.on_stop: List[Callable[[], None]] = []
        self.on_cont: List[Callable[[], None]] = []
        self.on_death: List[Callable[[str], None]] = []
        self.on_start: List[Callable[[], None]] = []
        self.death_reason: Optional[str] = None

    def _publish(self, name: str, **fields) -> None:
        self.engine.bus.publish(name, node=self.name, **fields)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self.state is not ProcessState.DEAD:
            raise RuntimeError(f"{self.name}: start while {self.state}")
        self.state = ProcessState.RUNNING
        self.incarnation += 1
        self.death_reason = None
        if self.incarnation > 1:
            self._publish(PROCESS_RESTART, incarnation=self.incarnation)
        for hook in list(self.on_start):
            hook()

    def exit(self, reason: str) -> None:
        """The process terminates itself (fail-fast) or is killed."""
        if self.state is ProcessState.DEAD:
            return
        self.state = ProcessState.DEAD
        self.death_reason = reason
        self._publish(PROCESS_EXIT, reason=reason, incarnation=self.incarnation)
        for hook in list(self.on_death):
            hook(reason)

    # -- signals ------------------------------------------------------------
    def sigstop(self) -> None:
        if self.state is not ProcessState.RUNNING:
            return
        self.state = ProcessState.STOPPED
        for hook in list(self.on_stop):
            hook()

    def sigcont(self) -> None:
        if self.state is not ProcessState.STOPPED:
            return
        self.state = ProcessState.RUNNING
        for hook in list(self.on_cont):
            hook()

    def sigkill(self) -> None:
        self.exit("killed")

    @property
    def running(self) -> bool:
        return self.state is ProcessState.RUNNING

    @property
    def alive(self) -> bool:
        return self.state is not ProcessState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} {self.state.value} gen={self.incarnation}>"


class RestartDaemon:
    """Per-node supervisor that restarts a dead process after a delay.

    ``restart_delay`` models the time to restart the application in a
    clean state.  The daemon only acts while ``enabled`` — it is disabled
    during a node crash (no OS to run it) and re-enabled at reboot.
    """

    def __init__(
        self,
        engine: Engine,
        process: SimProcess,
        restart_delay: float = 5.0,
    ):
        self.engine = engine
        self.process = process
        self.restart_delay = restart_delay
        self.enabled = True
        self.restarts = 0
        process.on_death.append(self._schedule_restart)

    def _schedule_restart(self, reason: str) -> None:
        if not self.enabled:
            return
        expected = self.process.incarnation
        self.engine.call_after(self.restart_delay, self._restart, expected)

    def _restart(self, expected_incarnation: int) -> None:
        if not self.enabled:
            return
        if self.process.alive or self.process.incarnation != expected_incarnation:
            return  # somebody else already restarted it
        self.restarts += 1
        self.process.start()

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True
        if not self.process.alive:
            self._schedule_restart("daemon-enabled")
