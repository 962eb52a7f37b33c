"""Measurement instruments: throughput buckets, annotated timelines.

Phase 1 of the paper's methodology is entirely about *throughput as a
function of time* around a fault-injection event (Figures 2-5).  The
:class:`ThroughputMonitor` bins request completions into fixed-width
buckets; the :class:`Annotations` log records the instants the system
detected/reconfigured/recovered, which phase 2 uses to delimit the seven
stages without curve fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.events import ANNOTATION, MONITOR_BUCKET
from ..obs.metrics import bound_counter
from .engine import Engine


@dataclass(frozen=True)
class Annotation:
    """A named instant on the experiment timeline."""

    time: float
    label: str
    detail: str = ""


class Annotations:
    """Ordered log of named instants (fault injected, detected, ...).

    Every ``mark`` is routed through the engine's bus as a
    ``sim.annotation`` event and the log repopulates itself from the
    delivery — so stage extraction and exported traces read the same
    timeline, and any other subscriber (a trace recorder, a live
    printer) sees annotations interleaved with the rest of the event
    stream in engine order.
    """

    def __init__(self, engine: Engine):
        self.entries: List[Annotation] = []
        self.bus = engine.bus
        self.bus.subscribe(self._on_event, names=[ANNOTATION])

    def mark(self, label: str, detail: str = "") -> None:
        self.bus.publish(ANNOTATION, label=label, detail=detail)

    def _on_event(self, event) -> None:
        self.entries.append(
            Annotation(
                event.time,
                event.fields.get("label", ""),
                event.fields.get("detail", ""),
            )
        )

    def first(self, label: str) -> Optional[Annotation]:
        for entry in self.entries:
            if entry.label == label:
                return entry
        return None

    def last(self, label: str) -> Optional[Annotation]:
        for entry in reversed(self.entries):
            if entry.label == label:
                return entry
        return None

    def all(self, label: str) -> List[Annotation]:
        return [e for e in self.entries if e.label == label]

    def times(self, label: str) -> List[float]:
        return [e.time for e in self.entries if e.label == label]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class ThroughputMonitor:
    """Bins successes and failures into fixed-width time buckets.

    ``success``/``failure`` record one completed or failed request at the
    current simulation time.  ``series`` converts the bins into
    (bucket_start, requests_per_second) pairs — the exact data behind the
    paper's timeline figures.

    Every *closed* bucket is also published on the engine's bus as a
    ``sim.monitor.bucket`` event, so live subscribers (the online stage
    detector, the health watchdog) see the same stream the post-hoc
    series is built from.  Publication is lazy — a bucket is
    emitted on the first completion that lands in a *later* bucket, and
    stall gaps are emitted as explicit zero buckets — so no timer is ever
    scheduled and observation cannot perturb the run.  ``flush`` emits
    the remaining closed buckets at end of run.
    """

    def __init__(self, engine: Engine, bucket_width: float = 1.0):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.engine = engine
        self.bucket_width = bucket_width
        self._ok: Dict[int, int] = {}
        self._failed: Dict[int, int] = {}
        self._pub_next = int(engine.now / bucket_width)
        self._total_ok = bound_counter(engine, "sim.monitor.requests_ok")
        self._total_failed = bound_counter(engine, "sim.monitor.requests_failed")

    @property
    def total_ok(self) -> int:
        return self._total_ok.value

    @property
    def total_failed(self) -> int:
        return self._total_failed.value

    def _bucket(self) -> int:
        return int(self.engine.now / self.bucket_width)

    def _publish_through(self, b: int) -> None:
        """Publish every closed bucket in [_pub_next, b) on the bus."""
        bus = self.engine.bus
        width = self.bucket_width
        for i in range(self._pub_next, b):
            bus.publish(
                MONITOR_BUCKET,
                start=i * width,
                ok=self._ok.get(i, 0),
                failed=self._failed.get(i, 0),
                width=width,
            )
        self._pub_next = b

    def flush(self, end: Optional[float] = None) -> None:
        """Publish every bucket fully closed at ``end`` (default: now)."""
        if end is None:
            end = self.engine.now
        b = int(end / self.bucket_width)
        if b > self._pub_next:
            self._publish_through(b)

    def success(self, n: int = 1) -> None:
        b = self._bucket()
        if b > self._pub_next:
            self._publish_through(b)
        self._ok[b] = self._ok.get(b, 0) + n
        self._total_ok.inc(n)

    def failure(self, n: int = 1) -> None:
        b = self._bucket()
        if b > self._pub_next:
            self._publish_through(b)
        self._failed[b] = self._failed.get(b, 0) + n
        self._total_failed.inc(n)

    @property
    def total(self) -> int:
        return self.total_ok + self.total_failed

    def availability(self) -> float:
        """Fraction of requests served successfully over the whole run."""
        if self.total == 0:
            return 1.0
        return self.total_ok / self.total

    def series(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """(bucket_start_time, throughput req/s) for every bucket in range.

        Buckets with no completions appear explicitly with rate 0 so stall
        periods are visible in the series.
        """
        if end is None:
            end = self.engine.now
        first = int(start / self.bucket_width)
        last = int(math.ceil(end / self.bucket_width))
        width = self.bucket_width
        return [
            (b * width, self._ok.get(b, 0) / width) for b in range(first, last)
        ]

    def failure_series(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        if end is None:
            end = self.engine.now
        first = int(start / self.bucket_width)
        last = int(math.ceil(end / self.bucket_width))
        width = self.bucket_width
        return [
            (b * width, self._failed.get(b, 0) / width)
            for b in range(first, last)
        ]

    def mean_rate(self, start: float, end: float) -> float:
        """Average successful throughput (req/s) over [start, end)."""
        if end <= start:
            return 0.0
        first = int(start / self.bucket_width)
        last = int(math.ceil(end / self.bucket_width))
        count = sum(self._ok.get(b, 0) for b in range(first, last))
        return count / ((last - first) * self.bucket_width)


@dataclass
class Timeline:
    """A completed phase-1 measurement: series + annotations + metadata."""

    version: str
    fault: str
    bucket_width: float
    series: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[Tuple[float, float]] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    normal_throughput: float = 0.0
    availability: float = 1.0

    def mean_rate(self, start: float, end: float) -> float:
        picked = [
            rate
            for t, rate in self.series
            if t + self.bucket_width > start and t < end
        ]
        if not picked:
            return 0.0
        return sum(picked) / len(picked)
