"""A metrics registry: counters, gauges, histograms keyed by name+labels.

Metric names follow ``layer.component.metric`` (see OBSERVABILITY.md);
labels carry the dimension that varies per instance (``node=``,
``peer=``, ``link=``).  Components keep exposing the plain integer
attributes they always had — those attributes are now read-only
properties backed by registry :class:`Counter` objects, so one registry
``summary()`` captures the whole run.

Instruments are plain mutable objects with an ``inc``/``set``/``observe``
hot path of one attribute update; no locks (the engine is single
threaded) and no engine interaction (metrics can never perturb a run).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(name: str, key: LabelKey) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str = "", **labels: str) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({_render(self.name, _label_key(self.labels))}={self.value})"


class Gauge:
    """A value that goes up and down (queue depth, members, cache bytes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str = "", **labels: str) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n


#: Default latency bucket upper bounds, in seconds.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive, ascending upper bucket edges; observations
    above the last bound land in the implicit overflow bucket.  Values
    must not be NaN (it has no bucket).
    """

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must ascend, got {self.bounds}")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; past the last bound, the overflow.
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Get-or-create home for every instrument in one run."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, **labels)
        return c

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, **labels)
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, **labels: str
    ) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, bounds, **labels)
        return h

    def summary(self, include_zero: bool = False) -> dict:
        """JSON-safe snapshot: ``name{label=value,...}`` -> reading.

        Zero-valued counters are omitted by default so per-cell telemetry
        stays compact; pass ``include_zero=True`` for the full inventory.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, key), c in sorted(self._counters.items()):
            if c.value or include_zero:
                out["counters"][_render(name, key)] = c.value
        for (name, key), g in sorted(self._gauges.items()):
            if g.value or include_zero:
                out["gauges"][_render(name, key)] = g.value
        for (name, key), h in sorted(self._histograms.items()):
            if h.count or include_zero:
                out["histograms"][_render(name, key)] = h.to_dict()
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def bound_counter(engine, name: str, **labels: str) -> Counter:
    """The counter ``name{labels}`` in ``engine``'s metrics registry.

    Components call this at construction time, so every counter they
    expose shows up in the run's ``summary()``.
    """
    return engine.bus.metrics.counter(name, **labels)
