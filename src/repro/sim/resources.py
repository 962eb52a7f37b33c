"""Shared-resource primitives for the simulation.

These model the contention points in the reproduction:

* :class:`Resource` — counted capacity with FIFO waiters (disk threads,
  connection slots).
* :class:`Store` — a FIFO of items with blocking get (message queues).

All primitives hand out :class:`~repro.sim.engine.Event` objects so they can
be awaited from processes or chained with callbacks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Engine, Event, SimulationError


class ResourceClosed(Exception):
    """The resource was closed while a request was queued."""


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
        self._closed = False

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = self.engine.event()
        if self._closed:
            ev.fail(ResourceClosed())
        elif self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True when a unit was granted."""
        if self._closed or self.in_use >= self.capacity:
            return False
        self.in_use += 1
        return True

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching acquire")
        if self._waiters:
            # Hand the unit straight to the next waiter: in_use stays flat.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def close(self) -> None:
        """Fail all queued waiters and reject future acquires."""
        self._closed = True
        while self._waiters:
            self._waiters.popleft().fail(ResourceClosed())


class Store:
    """FIFO of items with blocking ``get`` and optional capacity bound."""

    def __init__(self, engine: Engine, capacity: Optional[int] = None):
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> bool:
        """Add ``item``; returns False (dropping it) when full or closed."""
        if self._closed or self.full:
            return False
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        ev = self.engine.event()
        if self._items:
            ev.succeed(self._items.popleft())
        elif self._closed:
            ev.fail(ResourceClosed())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any:
        """Pop the head item or return None when empty."""
        return self._items.popleft() if self._items else None

    def drain(self) -> list:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items

    def close(self) -> None:
        """Fail blocked getters and reject future puts."""
        self._closed = True
        while self._getters:
            self._getters.popleft().fail(ResourceClosed())
