"""Shared-resource primitives for the simulation.

:class:`Resource` models the contention points in the reproduction:
counted capacity with FIFO waiters (disk threads, connection slots).  It
hands out :class:`~repro.sim.engine.Event` objects to chain callbacks on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Engine, Event, SimulationError


class Resource:
    """Counted capacity with FIFO granting.

    ``acquire`` returns an event that succeeds when a unit is granted; the
    holder must call ``release`` exactly once per grant.
    """

    def __init__(self, engine: Engine, capacity: int):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = self.engine.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching acquire")
        if self._waiters:
            # Hand the unit straight to the next waiter: in_use stays flat.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1
