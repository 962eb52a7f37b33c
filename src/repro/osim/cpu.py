"""The server main thread as a serial work queue.

PRESS is one coordinating thread plus helpers; every unit of server work
(parse a request, handle an intra-cluster message, send a response) is a
work item with a CPU cost.  The queue:

* executes items FIFO, one at a time — throughput emerges from the sum of
  item costs;
* can **block** mid-stream on an event (a TCP send with a full socket
  buffer, a VIA send with no flow-control credits) — this is precisely how
  a single stalled peer freezes a whole node in the paper's experiments;
* can be **frozen** (SIGSTOP, node hang) and later resumed;
* can be **killed** (process crash, node crash), dropping all queued work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..sim.engine import Engine, Event, Timer


def _noop() -> None:
    """Placeholder body for pure CPU-charge items."""


#: Shared empty argument tuple for no-arg items (avoids rebuilding one
#: per submission on the hot path).
_NO_ARGS: tuple = ()


class WorkQueue:
    """Serial executor with cost-weighted items, blocking, freeze, kill."""

    def __init__(self, engine: Engine, name: str = "cpu"):
        self.engine = engine
        self.name = name
        self._items: Deque[tuple] = deque()
        self._busy = False
        self._frozen = False
        self._dead = False
        self._block_event: Optional[Event] = None
        self._completion: Optional[Timer] = None
        self._current: Optional[tuple] = None
        self.items_executed = 0
        self.busy_time = 0.0

    # -- state -------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._dead

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def blocked(self) -> bool:
        return self._block_event is not None

    @property
    def depth(self) -> int:
        return len(self._items)

    # -- submission ----------------------------------------------------------
    def submit(self, cost: float, fn: Callable, *args) -> None:
        """Queue ``fn(*args)`` to run after ``cost`` seconds of CPU time.

        Passing arguments positionally (rather than closing over them)
        keeps the per-request path free of closure allocation and keeps
        queued work picklable for simulation snapshots.
        """
        if self._dead:
            return
        items = self._items
        items.append((cost, fn, args))
        if self._busy or self._frozen or self._block_event is not None:
            return
        # _maybe_start inlined.  It starts the head, not the new item: a
        # work item's fn runs with the queue idle, so older items may
        # still be waiting in front.
        item = items.popleft()
        self._busy = True
        self._current = item
        self.busy_time += item[0]
        self._completion = self.engine.call_after(item[0], self._complete, item)

    def submit_front(self, cost: float, fn: Callable, *args) -> None:
        """Queue at the head (priority work such as error handling)."""
        if self._dead:
            return
        self._items.appendleft((cost, fn, args))
        self._maybe_start()

    def charge(self, cost: float) -> None:
        """Consume ``cost`` seconds of CPU before the next queued item.

        Called from inside a running work item to account for work it
        performed synchronously (e.g. the send-path cost of a message it
        just transmitted).
        """
        if self._dead or cost <= 0:
            return
        if self._busy or self._frozen or self._block_event is not None:
            self._items.appendleft((cost, _noop, _NO_ARGS))
            return
        # Idle: the charge goes to the head of the queue, so it is the item
        # _maybe_start would start right away.
        item = (cost, _noop, _NO_ARGS)
        self._busy = True
        self._current = item
        self.busy_time += cost
        self._completion = self.engine.call_after(cost, self._complete, item)

    # -- blocking ------------------------------------------------------------
    def block_on(self, event: Event) -> None:
        """Stall the queue until ``event`` triggers.

        Intended to be called from inside a running work item's ``fn``; no
        further items execute until the event fires.  A failed event also
        unblocks (the failure reason has been handled by whoever failed
        it — e.g. a broken connection whose error path runs separately).
        """
        if self._dead:
            return
        if self._block_event is not None:
            raise RuntimeError(f"{self.name}: already blocked")
        self._block_event = event
        event.add_callback(self._unblocked)

    def _unblocked(self, event: Event) -> None:
        if self._block_event is not event:
            return  # stale wake-up after kill/restart
        self._block_event = None
        if not self._dead and not self._frozen:
            self._maybe_start()

    # -- freeze / kill --------------------------------------------------------
    def freeze(self) -> None:
        """SIGSTOP semantics: stop consuming work, keep it queued."""
        self._frozen = True
        if self._completion is not None and self._completion.active:
            # The in-flight item is re-queued at the head; its cost is
            # re-paid on resume (costs are microseconds — negligible).
            self._completion.cancel()
            self._completion = None
            if self._current is not None:
                self._items.appendleft(self._current)
                self._current = None
            self._busy = False

    def unfreeze(self) -> None:
        self._frozen = False
        if not self._dead and self._block_event is None:
            self._maybe_start()

    def kill(self) -> None:
        """Process death: drop all work, detach from any block event."""
        self._dead = True
        self._items.clear()
        self._block_event = None
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self._busy = False

    def resurrect(self) -> None:
        """Fresh process after a restart: empty, unblocked, runnable."""
        self._dead = False
        self._frozen = False
        self._block_event = None
        self._items.clear()
        self._busy = False

    # -- execution ----------------------------------------------------------
    def _maybe_start(self) -> None:
        """Start the head item if the queue may run now.

        ``submit``, ``charge`` and ``_complete`` carry inlined copies of
        this (same guards, same ``call_after``) for speed; keep them in
        step.
        """
        if (
            self._busy
            or self._frozen
            or self._dead
            or self._block_event is not None
            or not self._items
        ):
            return
        item = self._items.popleft()
        self._busy = True
        self._current = item
        self.busy_time += item[0]
        self._completion = self.engine.call_after(
            item[0], self._complete, item
        )

    def _complete(self, item: tuple) -> None:
        self._completion = None
        self._current = None
        if self._dead:
            return
        if self._frozen:
            # Freeze raced with completion; defer the item.
            self._items.appendleft((0.0, item[1], item[2]))
            self._busy = False
            return
        self._busy = False
        self.items_executed += 1
        item[1](*item[2])  # fn may block the queue or submit more work
        # _maybe_start inlined.
        if (
            self._busy
            or self._frozen
            or self._dead
            or self._block_event is not None
            or not self._items
        ):
            return
        item = self._items.popleft()
        self._busy = True
        self._current = item
        self.busy_time += item[0]
        self._completion = self.engine.call_after(item[0], self._complete, item)

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see repro.sim.snapshot)."""
        return {
            "depth": len(self._items),
            "busy": self._busy,
            "frozen": self._frozen,
            "dead": self._dead,
            "blocked": self._block_event is not None,
            "items_executed": self.items_executed,
            "busy_time": self.busy_time,
        }

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent executing items."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
