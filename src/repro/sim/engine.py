"""Discrete-event simulation engine.

The engine owns the virtual clock and an event heap.  Everything in the
reproduction — network links, TCP retransmission timers, heartbeat protocols,
fault injection schedules, client request streams — is driven by callbacks
scheduled on a single :class:`Engine`.

Two scheduling styles are supported:

* **Callbacks** (`call_at` / `call_after`) — the hot path.  Per-message
  plumbing in the network and transport layers uses plain callbacks to keep
  per-event overhead low.
* **Processes** (:mod:`repro.sim.process`) — generator coroutines layered on
  top of :class:`Event`, used for control logic that reads better as
  sequential code (client sessions, fault scenarios, server recovery).

Each engine owns one :class:`~repro.obs.bus.EventBus` (``engine.bus``),
the single surface every observer attaches to.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run is
a pure function of its configuration and RNG seed.

Hot-loop design (this is the wall-clock bottleneck of the campaign):

* Heap entries are ``(time, seq, timer)`` tuples, so ordering is resolved
  by C-level tuple comparison — ``seq`` is unique, so the ``timer`` slot is
  never compared.
* The earliest entry is kept in a one-entry ``_next`` slot *outside* the
  heap.  Schedule-then-fire ping-pong (the dominant pattern: a callback
  schedules the next callback) never touches ``heapq`` at all.
* Fired and tombstoned :class:`Timer` objects are recycled through a
  freelist, eliminating per-event allocation.  A handle is therefore only
  meaningful until its callback has run or it has been cancelled — holders
  must drop their reference at that point (every in-tree holder does).
* Cancellation is O(1) tombstoning, but tombstones no longer linger: a
  live-count integer makes :attr:`pending` O(1), and the heap is compacted
  in place whenever cancelled entries outnumber live ones.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from ..obs.bus import EventBus

#: Upper bound on recycled Timer objects kept for reuse.
_FREELIST_MAX = 4096
#: Compaction fires when the heap holds more tombstones than this *and*
#: they outnumber live entries.
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Base class for errors raised by the simulation machinery."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Engine.run` immediately."""


class Timer:
    """Handle for a scheduled callback.

    A ``Timer`` can be cancelled until it fires; cancellation is O(1) — the
    heap entry is tombstoned rather than removed, and reclaimed by the
    engine's incremental compaction.

    Lifecycle contract: once a timer has fired or been cancelled its object
    may be recycled for a future ``call_at``, so holders must drop their
    reference at that point (the idiomatic pattern — null the attribute in
    the callback / right after ``cancel()`` — does this naturally).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "engine")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable,
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled timers do not pin large objects
        # while they wait to be compacted out of the heap.
        self.fn = None
        self.args = ()
        if not self.fired:
            engine = self.engine
            if engine is not None:
                engine._note_cancel(self)

    @property
    def active(self) -> bool:
        """Still pending: neither cancelled nor already fired."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Timer") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<Timer t={self.time:.6f} seq={self.seq} {state}>"


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event is *triggered* at most once, with either a value (``succeed``)
    or an exception (``fail``).  Callbacks added after triggering fire
    immediately (synchronously), which keeps waiter logic free of
    time-of-check races.
    """

    __slots__ = ("engine", "_callbacks", "triggered", "ok", "value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._callbacks: Optional[list] = []
        self.triggered = False
        self.ok = False
        self.value: Any = None

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (now, if already has)."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception for waiters to re-raise."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.triggered:
            return "<Event pending>"
        kind = "ok" if self.ok else "failed"
        return f"<Event {kind} value={self.value!r}>"


class Engine:
    """The simulation core: a virtual clock plus an event heap."""

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        self._heap: list = []  # (time, seq, Timer) tuples
        self._next: Optional[tuple] = None  # earliest entry, kept off-heap
        self._seq: int = 0
        self._running = False
        self._events_processed: int = 0
        self._live: int = 0  # scheduled, neither fired nor cancelled
        self._tombstones: int = 0  # cancelled entries still queued
        self._freelist: list = []
        # Heap-churn counters (read by repro.obs.profiler): Timer
        # objects actually allocated (vs recycled) and tombstone
        # compactions.
        self._timer_allocs: int = 0
        self._compactions: int = 0
        #: The one instrumentation surface (see repro.obs.bus): events,
        #: the metrics registry (``bus.metrics``) and the span slot
        #: (``bus.spans``).  It lives exactly as long as the engine, so
        #: components may bind it once at construction.
        self.bus = EventBus(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Scheduling in the past is an error: it would silently reorder
        causality.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self.now:.6f}"
            )
        if time != time:  # NaN (cheaper than math.isnan on the hot path)
            raise SimulationError("cannot schedule at NaN time")
        self._seq = seq = self._seq + 1
        freelist = self._freelist
        if freelist:
            timer = freelist.pop()
            timer.time = time
            timer.seq = seq
            timer.fn = fn
            timer.args = args
            timer.cancelled = False
            timer.fired = False
        else:
            timer = Timer(time, seq, fn, args, self)
            self._timer_allocs += 1
        entry = (time, seq, timer)
        nxt = self._next
        if nxt is None:
            # The slot may only hold the globally earliest entry; if the
            # heap head is earlier, the new entry queues behind it.
            heap = self._heap
            if heap and heap[0] < entry:
                heappush(heap, entry)
            else:
                self._next = entry
        elif entry < nxt:
            heappush(self._heap, nxt)
            self._next = entry
        else:
            heappush(self._heap, entry)
        self._live += 1
        return timer

    def call_after(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        # Body duplicated from call_at (minus the past-check, which
        # ``delay >= 0`` already implies): this is the hottest scheduling
        # entry point and the extra call frame is measurable.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        if time != time:
            raise SimulationError("cannot schedule at NaN time")
        self._seq = seq = self._seq + 1
        freelist = self._freelist
        if freelist:
            timer = freelist.pop()
            timer.time = time
            timer.seq = seq
            timer.fn = fn
            timer.args = args
            timer.cancelled = False
            timer.fired = False
        else:
            timer = Timer(time, seq, fn, args, self)
            self._timer_allocs += 1
        entry = (time, seq, timer)
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if heap and heap[0] < entry:
                heappush(heap, entry)
            else:
                self._next = entry
        elif entry < nxt:
            heappush(self._heap, nxt)
            self._next = entry
        else:
            heappush(self._heap, entry)
        self._live += 1
        return timer

    def call_soon(self, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.call_at(self.now, fn, *args)

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event` bound to this engine."""
        return Event(self)

    # ------------------------------------------------------------------
    # Tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self, timer: Timer) -> None:
        """A live timer was cancelled (called by :meth:`Timer.cancel`)."""
        self._live -= 1
        self._tombstones = tombstones = self._tombstones + 1
        if tombstones > _COMPACT_MIN and tombstones * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (in place, O(n)).

        In-place so that a ``run`` loop holding a local reference to the
        heap list keeps seeing the live structure.
        """
        heap = self._heap
        freelist = self._freelist
        self._compactions += 1
        live = []
        for entry in heap:
            timer = entry[2]
            if timer.cancelled:
                if len(freelist) < _FREELIST_MAX:
                    freelist.append(timer)
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        nxt = self._next
        self._tombstones = 1 if nxt is not None and nxt[2].cancelled else 0

    def _recycle(self, timer: Timer) -> None:
        freelist = self._freelist
        if len(freelist) < _FREELIST_MAX:
            timer.fn = None
            timer.args = ()
            freelist.append(timer)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none remain."""
        heap = self._heap
        while True:
            nxt = self._next
            if nxt is None:
                if not heap:
                    return math.inf
                self._next = nxt = heappop(heap)
            timer = nxt[2]
            if timer.cancelled:
                self._next = None
                self._tombstones -= 1
                self._recycle(timer)
                continue
            return nxt[0]

    def step(self) -> bool:
        """Run the single next event.  Returns False when the heap is empty."""
        heap = self._heap
        while True:
            nxt = self._next
            if nxt is None:
                if not heap:
                    return False
                nxt = heappop(heap)
            timer = nxt[2]
            self._next = None
            if timer.cancelled:
                self._tombstones -= 1
                self._recycle(timer)
                continue
            self.now = nxt[0]
            self._events_processed += 1
            self._live -= 1
            timer.fired = True
            fn = timer.fn
            args = timer.args
            timer.fn = None
            timer.args = ()
            fn(*args)
            if not timer.cancelled:
                self._recycle(timer)
            return True

    def run(self, until: float = math.inf) -> None:
        """Run events in order until the heap drains or ``until`` is reached.

        The clock is advanced to ``until`` (if finite) even when the heap
        drains earlier, so back-to-back ``run`` calls observe a continuous
        timeline.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        heap = self._heap
        freelist = self._freelist
        processed = 0
        try:
            while True:
                nxt = self._next
                if nxt is None:
                    if not heap:
                        break
                    nxt = heappop(heap)
                timer = nxt[2]
                if timer.cancelled:
                    self._next = None
                    self._tombstones -= 1
                    if len(freelist) < _FREELIST_MAX:
                        freelist.append(timer)
                    continue
                time = nxt[0]
                if time > until:
                    self._next = nxt
                    break
                self._next = None
                self.now = time
                processed += 1
                timer.fired = True
                try:
                    timer.fn(*timer.args)
                except StopSimulation:
                    return
                # Recycle unless the callback (or someone it called)
                # cancelled the fired handle — a holder doing that still
                # has a live reference, so the object must not be reused.
                if not timer.cancelled and len(freelist) < _FREELIST_MAX:
                    freelist.append(timer)
            if until is not math.inf and until > self.now:
                self.now = until
        finally:
            # Fired events drop the live count in one batch; `pending` is
            # only meaningful between runs (no in-tree callback reads it
            # mid-run, and cancel() stays exact because it decrements
            # directly).
            self._events_processed += processed
            self._live -= processed
            self._running = False

    # ------------------------------------------------------------------
    # Snapshot support (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support for deterministic checkpoints.

        Capturing mid-callback is forbidden: the in-flight event's
        continuation lives on the C stack, not in the heap.  The timer
        freelist is dropped — recycled handles are reachable only from
        the engine and carry no simulation state, so shedding them
        shrinks the blob without affecting determinism (object *reuse*
        patterns differ after restore, object *behaviour* does not).
        """
        if self._running:
            raise SimulationError("cannot snapshot a running engine")
        state = self.__dict__.copy()
        state["_freelist"] = []
        return state

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable)."""
        return {
            "now": self.now,
            "seq": self._seq,
            "events_processed": self._events_processed,
            "pending": self._live,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (profiling / test aid)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Count of live (non-cancelled) timers in the heap.  O(1)."""
        return self._live

    @property
    def queued_tombstones(self) -> int:
        """Cancelled entries awaiting compaction (test/diagnostic aid)."""
        return self._tombstones

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.6f} pending={self.pending}>"
