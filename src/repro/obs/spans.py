"""Request-scoped causal tracing: spans, one tree per client request.

The event bus (:mod:`repro.obs.bus`) answers "what happened, when"; it
cannot answer "where did *this* request's 4.1 seconds go".  Spans do: a
span is an interval of simulated time attributed to one request (the
*trace* — trace id == client request id), nested under the span that
caused it.  The client opens the root span when it issues a request;
the HTTP frame carries the trace id across the fabric; every hop the
request touches — fabric transit, server handling, intra-cluster
forwarding, disk fetches, transport messages with their retransmission
history — opens a child span, so the finished tree decomposes the
client-observed latency hop by hop (see :func:`critical_path`).

The collector attaches to the engine's bus like every other observer
(:meth:`SpanCollector.attach` fills the bus's ``spans`` slot), and
every instrumentation site guards with::

    spans = bus.spans
    if spans is not None:
        ...

so a run with tracing disabled pays one attribute load per would-be
span.  Spans are deliberately not bus events: every campaign cell
records all event names, so a ``span.*`` publish would build an event
object in every cell even with spans off.  Span-disabled runs are
byte-identical to span-enabled ones because the collector only ever
*observes*; it never schedules, mutates component state, or perturbs
iteration order.

Correlation across components goes through *keys* held inside the
collector (``("msg", msg_id)``, ``("net", frame_id)``, ...): the
sender opens a keyed span, the receiver (or the fabric's loss path)
closes it by key.  Components carry no span state of their own beyond
the ``trace_id`` slots on :class:`~repro.net.packet.Frame` and
:class:`~repro.transports.base.Message`.

Causality quirks the model makes explicit instead of hiding:

* a span whose cause is a *finished* request (a retransmitted response
  still in flight after the client timed out, a cache-update broadcast
  riding on a completed fetch) parents to the closed root and is marked
  ``late`` — it belongs to the tree but lies outside the root interval;
* a span still open when the simulation ends (a frame lost mid-flight,
  a forward stranded by a membership exclusion) is closed by
  :meth:`SpanCollector.finish` with status ``"dropped"`` — nothing is
  silently discarded, which is what lets the validator insist that
  every opened span is accounted for.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Span outcome statuses.  "ok" and domain-specific terminal states are
#: set by the instrumentation sites; "dropped" is reserved for
#: :meth:`SpanCollector.finish` closing spans the simulation abandoned.
STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"


class Span:
    """One attributed interval of simulated time."""

    __slots__ = (
        "sid",
        "trace",
        "parent",
        "name",
        "node",
        "start",
        "end",
        "status",
        "late",
        "notes",
        "key",  # correlation key (not exported), see SpanCollector.start
    )

    def __init__(
        self,
        sid: int,
        trace: int,
        parent: Optional[int],
        name: str,
        node: Optional[str],
        start: float,
        late: bool,
    ):
        self.sid = sid
        self.trace = trace
        self.parent = parent  # parent sid, None for the root
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.status = STATUS_OPEN
        self.late = late
        self.notes: Dict[str, Any] = {}
        self.key: Optional[Tuple] = None

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_record(self) -> dict:
        """JSON-ready export form (``<label>.spans.jsonl`` rows)."""
        out = {
            "sid": self.sid,
            "trace": self.trace,
            "parent": self.parent,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.late:
            out["late"] = True
        if self.notes:
            out["notes"] = self.notes
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "…"
        return (
            f"<Span #{self.sid} trace={self.trace} {self.name}"
            f" [{self.start:.6f}, {end}] {self.status}>"
        )


class SpanCollector:
    """Builds span trees as the simulation runs.

    Deterministic by construction: span ids are assignment order, every
    timestamp is simulated time handed in by the caller, and sampling is
    a pure function of the trace id (``trace % sample_every == 0``) —
    so two runs of the same seed produce byte-identical span files.
    """

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        self.spans: List[Span] = []
        #: open spans per trace, innermost last — the default parent.
        self._open: Dict[int, List[Span]] = {}
        #: root span per trace (stays here after it closes, for ``late``
        #: parenting of post-completion causality).
        self._roots: Dict[int, Span] = {}
        #: open keyed spans for cross-component close (("msg", id), ...).
        self._keyed: Dict[Tuple, Span] = {}

    def attach(self, bus) -> "SpanCollector":
        """Collect the spans of ``bus``'s run; returns self."""
        bus.spans = self
        return self

    # ------------------------------------------------------------------
    # Hot-path entry points
    # ------------------------------------------------------------------
    def wants(self, trace: int) -> bool:
        """Is this trace sampled?  Every entry point gates on it."""
        return trace % self.sample_every == 0

    def start(
        self,
        trace: int,
        name: str,
        t: float,
        node: Optional[str] = None,
        key: Optional[Tuple] = None,
        **notes: Any,
    ) -> Optional[Span]:
        """Open a span; returns ``None`` when the trace is not sampled.

        The parent is the innermost span of the trace still open.  With
        none open, the first span of a trace becomes its root; later
        ones parent to the (closed) root and are marked ``late``.
        """
        if trace % self.sample_every != 0:
            return None
        stack = self._open.get(trace)
        late = False
        if stack:
            parent: Optional[int] = stack[-1].sid
        else:
            root = self._roots.get(trace)
            if root is None:
                parent = None
            else:
                parent = root.sid
                late = True
        span = Span(len(self.spans), trace, parent, name, node, t, late)
        if notes:
            span.notes.update(notes)
        self.spans.append(span)
        if parent is None:
            self._roots[trace] = span
        if stack is None:
            self._open[trace] = [span]
        else:
            stack.append(span)
        if key is not None:
            span.key = key
            self._keyed[key] = span
        return span

    def end(
        self,
        span: Optional[Span],
        t: float,
        status: str = STATUS_OK,
        **notes: Any,
    ) -> None:
        """Close ``span`` (a no-op on ``None``, so call sites can pass
        the result of :meth:`start`/:meth:`find` through unguarded)."""
        if span is None or span.end is not None:
            return
        span.end = t
        span.status = status
        if notes:
            span.notes.update(notes)
        stack = self._open.get(span.trace)
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:
                pass
            if not stack:
                del self._open[span.trace]
        # A later span may have re-registered the key: only drop it
        # while it still maps to this span.
        key = span.key
        if key is not None and self._keyed.get(key) is span:
            del self._keyed[key]

    def find(self, key: Tuple) -> Optional[Span]:
        """The open keyed span, or ``None`` (closed, unsampled, never
        opened — the call sites treat all three the same way)."""
        return self._keyed.get(key)

    def end_key(
        self, key: Tuple, t: float, status: str = STATUS_OK, **notes: Any
    ) -> None:
        self.end(self._keyed.get(key), t, status, **notes)

    def note(self, span: Optional[Span], **notes: Any) -> None:
        """Annotate an open span in place (no-op on ``None``)."""
        if span is not None:
            span.notes.update(notes)

    def bump(self, span: Optional[Span], field: str, by: int = 1) -> None:
        """Increment a counter annotation (retransmits, resubmits...)."""
        if span is not None:
            span.notes[field] = span.notes.get(field, 0) + by

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self, t: float) -> None:
        """The simulation ended: close abandoned spans as ``dropped``.

        Idempotent — the observatory calls it once per run, but tests
        may call it again after inspecting.
        """
        for stack in list(self._open.values()):
            for span in list(stack):
                self.end(span, t, STATUS_DROPPED)
        self._open.clear()
        self._keyed.clear()

    @property
    def n_traces(self) -> int:
        return len(self._roots)

    def summary(self) -> dict:
        """Digest for telemetry payloads (deterministic key order)."""
        by_status: Dict[str, int] = {}
        for span in self.spans:
            by_status[span.status] = by_status.get(span.status, 0) + 1
        return {
            "spans": len(self.spans),
            "traces": len(self._roots),
            "sample_every": self.sample_every,
            "by_status": dict(sorted(by_status.items())),
        }


# ----------------------------------------------------------------------
# Invariants — shared by `python -m repro trace-validate` and the tests
# ----------------------------------------------------------------------


def check_span_invariants(records: Iterable[dict]) -> List[str]:
    """Validate exported span records; returns human-readable problems.

    The contract every exported span file must satisfy:

    * every span closed, or explicitly marked ``dropped``;
    * every child starts within its parent's interval (``late`` spans
      are exempt from the upper bound — they are *declared* to start
      after the root closed — but never from the lower);
    * no orphans: every span's parent exists, parents belong to the
      same trace, and every trace has exactly one root.
    """
    problems: List[str] = []
    by_sid: Dict[int, dict] = {}
    roots: Dict[int, int] = {}
    for rec in records:
        sid = rec["sid"]
        if sid in by_sid:
            problems.append(f"span #{sid}: duplicate sid")
            continue
        by_sid[sid] = rec
    for sid, rec in sorted(by_sid.items()):
        trace, name = rec["trace"], rec["name"]
        where = f"span #{sid} ({name}, trace {trace})"
        end = rec.get("end")
        if end is None:
            problems.append(f"{where}: never closed")
        elif rec.get("status") == STATUS_OPEN:
            problems.append(f"{where}: closed but status is 'open'")
        if end is not None and end < rec["start"]:
            problems.append(
                f"{where}: ends at {end} before it starts ({rec['start']})"
            )
        parent_sid = rec.get("parent")
        if parent_sid is None:
            if trace in roots:
                problems.append(
                    f"{where}: second root (first is #{roots[trace]})"
                )
            else:
                roots[trace] = sid
            continue
        parent = by_sid.get(parent_sid)
        if parent is None:
            problems.append(f"{where}: parent #{parent_sid} does not exist")
            continue
        if parent["trace"] != trace:
            problems.append(
                f"{where}: parent #{parent_sid} belongs to trace "
                f"{parent['trace']}"
            )
        if rec["start"] < parent["start"]:
            problems.append(
                f"{where}: starts at {rec['start']} before parent "
                f"#{parent_sid} ({parent['start']})"
            )
        p_end = parent.get("end")
        if (
            p_end is not None
            and rec["start"] > p_end
            and not rec.get("late")
        ):
            problems.append(
                f"{where}: starts at {rec['start']} after parent "
                f"#{parent_sid} ended ({p_end}) without a 'late' mark"
            )
    for rec in by_sid.values():
        if rec["trace"] not in roots:
            problems.append(
                f"span #{rec['sid']}: trace {rec['trace']} has no root"
            )
    return problems


# ----------------------------------------------------------------------
# Critical-path extraction
# ----------------------------------------------------------------------


def critical_path(spans: Iterable[Span]) -> dict:
    """Decompose request latency into per-hop *self time*.

    A span's self time is its duration minus the time covered by its
    children (clamped to the span's own interval; overlapping children
    are merged, so concurrent fan-out is not double-counted).  Summed
    per span name over all completed traces, this answers the question
    the tail sketches raise: *where* do the slow requests spend their
    time — on the wire, in retransmission gaps, on disk, in forwarding?

    ``late`` spans are excluded from their parent's decomposition (they
    lie outside the root interval by definition) but still reported
    under their own name, so post-completion work (retransmitted
    responses, cache-update broadcasts) stays visible.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None and not span.late:
            children.setdefault(span.parent, []).append(span)

    hops: Dict[str, Dict[str, float]] = {}
    roots = 0
    root_total = 0.0
    for span in spans:
        if span.end is None:
            continue
        if span.parent is None:
            roots += 1
            root_total += span.duration
        covered = _covered(span, children.get(span.sid, ()))
        self_time = max(0.0, span.duration - covered)
        slot = hops.setdefault(
            span.name, {"count": 0, "self_time": 0.0, "span_time": 0.0}
        )
        slot["count"] += 1
        slot["self_time"] += self_time
        slot["span_time"] += span.duration
    for slot in hops.values():
        slot["self_time"] = round(slot["self_time"], 9)
        slot["span_time"] = round(slot["span_time"], 9)
    return {
        "traces": roots,
        "total_latency": round(root_total, 9),
        "hops": dict(sorted(hops.items())),
    }


def _covered(span: Span, kids: Iterable[Span]) -> float:
    """Total time within ``span`` covered by ``kids`` (union of
    intervals, clamped to the parent's own interval)."""
    intervals = []
    p_end = span.end if span.end is not None else span.start
    for kid in kids:
        lo = max(kid.start, span.start)
        hi = min(kid.end if kid.end is not None else p_end, p_end)
        if hi > lo:
            intervals.append((lo, hi))
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    total += cur_hi - cur_lo
    return total
