"""A structured, sim-time-stamped event bus for the simulation.

Components publish named events through :class:`EventBus`; subscribers
receive them synchronously, in publish order — which, because every
publish happens inside an engine timer callback, is exactly the engine's
deterministic timer order.  With no subscriber attached, ``publish`` is
a dict lookup and a return: cheap enough to leave in every hot path.

Publishing never schedules engine events, touches RNG streams, or
mutates component state, so attaching a subscriber cannot perturb a run:
the observer effect is zero by construction (guarded by
``tests/obs/test_determinism.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .metrics import MetricsRegistry

Subscriber = Callable[["SimEvent"], None]


class _SimEventRecord(NamedTuple):
    time: float
    seq: int
    name: str
    node: str
    fields: dict


class SimEvent(_SimEventRecord):
    """One published event: what happened, where, and at what sim time.

    A read-only record.  It is a named tuple because the bus builds one
    per delivered publish: :meth:`EventBus.publish` constructs it
    positionally with ``tuple.__new__``, several times cheaper than a
    frozen dataclass ``__init__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        seq: int,
        name: str,
        node: str = "",
        fields: Optional[dict] = None,
    ) -> "SimEvent":
        if fields is None:
            fields = {}
        return _new_event(cls, (time, seq, name, node, fields))

    def to_dict(self) -> dict:
        d = {"time": self.time, "seq": self.seq, "name": self.name}
        if self.node:
            d["node"] = self.node
        if self.fields:
            d["fields"] = self.fields
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimEvent":
        return cls(
            time=float(d["time"]),
            seq=int(d["seq"]),
            name=str(d["name"]),
            node=str(d.get("node", "")),
            fields=dict(d.get("fields", {})),
        )


_new_event = tuple.__new__


class EventBus:
    """Publish/subscribe hub bound to one :class:`~repro.sim.engine.Engine`.

    Each engine builds exactly one bus (``engine.bus``), and the bus is
    the engine's whole instrumentation surface: ``metrics`` is the run's
    :class:`~repro.obs.metrics.MetricsRegistry`, and ``spans`` holds the
    request-scoped :class:`~repro.obs.spans.SpanCollector` once one is
    attached (``None`` until then).  Every observer attaches the same
    way, ``observer.attach(bus)``.

    Subscribers registered with ``names=None`` see every event; those
    registered with a name list see only those names.  Delivery is
    synchronous and exception-isolated: a subscriber that raises is
    counted in ``subscriber_errors`` and the run continues.

    Subscriber lists are tuples, replaced (never mutated) by
    ``subscribe``/``unsubscribe``: a publish iterates the tuple it
    started with, so a subscriber that (un)subscribes during dispatch
    neither skips nor repeats anyone in that dispatch.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.metrics = MetricsRegistry()
        #: request-scoped span collector, set by ``SpanCollector.attach``.
        self.spans = None
        self._all: Tuple[Subscriber, ...] = ()
        self._by_name: Dict[str, Tuple[Subscriber, ...]] = {}
        self._seq = 0
        self.published = 0
        self.subscriber_errors = 0

    @property
    def active(self) -> bool:
        """True if at least one subscriber is attached (any scope)."""
        return bool(self._all) or bool(self._by_name)

    def subscribe(
        self, fn: Subscriber, names: Optional[Iterable[str]] = None
    ) -> Subscriber:
        """Register ``fn`` for all events, or just the given names."""
        if names is None:
            self._all += (fn,)
        else:
            for name in names:
                self._by_name[name] = self._by_name.get(name, ()) + (fn,)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn`` everywhere it is registered."""
        self._all = _without(self._all, fn)
        for name in list(self._by_name):
            subs = _without(self._by_name[name], fn)
            if subs:
                self._by_name[name] = subs
            else:
                del self._by_name[name]

    def publish(self, name: str, node: str = "", **fields) -> Optional[SimEvent]:
        """Publish one event; returns it, or None on the fast path.

        The fast path — no subscriber cares about ``name`` — does not
        build the event object at all.
        """
        named = self._by_name.get(name)
        if not named and not self._all:
            return None
        self._seq = seq = self._seq + 1
        event = _new_event(SimEvent, (self.engine.now, seq, name, node, fields))
        self.published += 1
        for fn in self._all:
            try:
                fn(event)
            except Exception:
                self.subscriber_errors += 1
        if named:
            for fn in named:
                try:
                    fn(event)
                except Exception:
                    self.subscriber_errors += 1
        return event


def _without(
    subs: Tuple[Subscriber, ...], fn: Subscriber
) -> Tuple[Subscriber, ...]:
    """``subs`` minus its first ``fn`` (the old ``list.remove`` semantics)."""
    if fn not in subs:
        return subs
    i = subs.index(fn)
    return subs[:i] + subs[i + 1 :]


class EventRecorder:
    """A subscriber that keeps per-name counts and (optionally) the events.

    ``keep_events=False`` gives the compact always-on campaign telemetry:
    just counts, no per-event storage.
    """

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.events: List[SimEvent] = []
        self.counts: Dict[str, int] = {}

    def __call__(self, event: SimEvent) -> None:
        self.counts[event.name] = self.counts.get(event.name, 0) + 1
        if self.keep_events:
            self.events.append(event)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def attach(self, bus: EventBus) -> "EventRecorder":
        """Subscribe to every event on ``bus``; returns self for chaining."""
        bus.subscribe(self)
        return self
