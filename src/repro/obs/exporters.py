"""Render a recorded event stream as JSONL or Chrome ``trace_event`` JSON.

* JSONL: one :class:`~repro.obs.bus.SimEvent` dict per line — trivially
  greppable and round-trippable (:func:`write_events_jsonl` /
  :func:`read_events_jsonl`).
* Chrome trace: the ``trace_event`` JSON object format understood by
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Each
  simulated node becomes a process track (pid), each ``layer`` of the
  event taxonomy a thread track (tid) inside it; events become instants
  and fault inject/clear pairs become duration spans.  Sim seconds map
  to trace microseconds.
* :func:`telemetry_summary` condenses a run into the compact dict the
  campaign result store persists per cell.
* :func:`export_traces` writes one run's event and span files; campaign
  cells and the ``timeline`` command both export through it.

The ``validate_*`` helpers raise :class:`ValueError` on malformed output
and back the CI trace-smoke job.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bus import EventRecorder, SimEvent
from .events import FAULT_CLEARED, FAULT_INJECTED, layer_of

_US = 1_000_000  # sim seconds -> trace microseconds

# -- JSONL --------------------------------------------------------------


def write_events_jsonl(
    events: Sequence[SimEvent], path, meta: Optional[dict] = None
) -> Path:
    """Write events one-per-line; an optional ``meta`` header line first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return path


def read_events_jsonl(path) -> List[SimEvent]:
    """Read a JSONL trace back; the meta header line is skipped."""
    events: List[SimEvent] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            if "meta" in d and "name" not in d:
                continue
            events.append(SimEvent.from_dict(d))
    return events


def validate_events_jsonl(path) -> int:
    """Check a JSONL trace is well formed; returns the event count."""
    count = 0
    last_seq = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if "meta" in d and "name" not in d:
                continue
            for field in ("time", "seq", "name"):
                if field not in d:
                    raise ValueError(f"{path}:{lineno}: event missing {field!r}")
            if d["seq"] <= last_seq:
                raise ValueError(
                    f"{path}:{lineno}: seq {d['seq']} not increasing"
                )
            last_seq = d["seq"]
            count += 1
    return count


# -- Chrome trace_event -------------------------------------------------


def chrome_trace(
    events: Sequence[SimEvent], label: str = "run", meta: Optional[dict] = None
) -> dict:
    """Build a Chrome ``trace_event`` object from a recorded run.

    One process per node (events with no node land on the "cluster"
    track), one thread per taxonomy layer.  Fault inject/clear pairs
    become "X" duration spans on the injector's track; everything else
    is an "i" instant.
    """
    trace_events: List[dict] = []
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}

    def pid_of(node: str) -> int:
        key = node or "cluster"
        if key not in pids:
            pids[key] = len(pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[key],
                    "tid": 0,
                    "args": {"name": key},
                }
            )
        return pids[key]

    def tid_of(pid: int, layer: str) -> int:
        key = (pid, layer)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tids[key],
                    "args": {"name": layer},
                }
            )
        return tids[key]

    open_faults: Dict[tuple, SimEvent] = {}
    for event in events:
        pid = pid_of(event.node)
        tid = tid_of(pid, layer_of(event.name))
        ts = round(event.time * _US, 3)
        if event.name == FAULT_INJECTED:
            open_faults[(event.node, event.fields.get("fault"))] = event
            continue
        if event.name == FAULT_CLEARED:
            start = open_faults.pop((event.node, event.fields.get("fault")), None)
            if start is not None:
                trace_events.append(
                    {
                        "ph": "X",
                        "name": str(start.fields.get("fault", "fault")),
                        "cat": "fault",
                        "pid": pid,
                        "tid": tid,
                        "ts": round(start.time * _US, 3),
                        "dur": round((event.time - start.time) * _US, 3),
                        "args": dict(start.fields),
                    }
                )
                continue
        trace_events.append(
            {
                "ph": "i",
                "name": event.name,
                "cat": layer_of(event.name),
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "s": "t",
                "args": dict(event.fields),
            }
        )
    # Faults never cleared inside the run: emit as instants so they are
    # not silently dropped from the timeline.
    for start in open_faults.values():
        pid = pid_of(start.node)
        trace_events.append(
            {
                "ph": "i",
                "name": start.name,
                "cat": "fault",
                "pid": pid,
                "tid": tid_of(pid, layer_of(start.name)),
                "ts": round(start.time * _US, 3),
                "s": "t",
                "args": dict(start.fields),
            }
        )
    out = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label},
    }
    if meta:
        out["otherData"].update(meta)
    return out


def write_chrome_trace(
    events: Sequence[SimEvent], path, label: str = "run", meta: Optional[dict] = None
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(events, label, meta)), encoding="utf-8")
    return path


_PH_REQUIRED = {
    "i": ("name", "pid", "tid", "ts"),
    "X": ("name", "pid", "tid", "ts", "dur"),
    "M": ("name", "pid"),
    # Async nestable begin/end — the per-request span export.
    "b": ("name", "cat", "id", "pid", "tid", "ts"),
    "e": ("name", "cat", "id", "pid", "tid", "ts"),
}


def validate_chrome_trace(path) -> int:
    """Check a Chrome trace file is well formed; returns the event count.

    Validates the subset of the ``trace_event`` spec we emit: an object
    with a ``traceEvents`` list whose entries carry the fields Perfetto
    needs for their phase.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError(f"{path}: missing traceEvents list")
    for i, entry in enumerate(doc["traceEvents"]):
        if not isinstance(entry, dict) or "ph" not in entry:
            raise ValueError(f"{path}: traceEvents[{i}] missing ph")
        required = _PH_REQUIRED.get(entry["ph"])
        if required is None:
            raise ValueError(f"{path}: traceEvents[{i}] unknown ph {entry['ph']!r}")
        for field in required:
            if field not in entry:
                raise ValueError(
                    f"{path}: traceEvents[{i}] ({entry['ph']}) missing {field!r}"
                )
        if entry["ph"] in ("i", "X") and entry["ts"] < 0:
            raise ValueError(f"{path}: traceEvents[{i}] negative ts")
        if entry["ph"] == "X" and entry["dur"] < 0:
            raise ValueError(f"{path}: traceEvents[{i}] negative dur")
    return len(doc["traceEvents"])


def validate_trace_dir(trace_dir) -> Dict[str, int]:
    """Validate every trace file under ``trace_dir``.

    Returns {filename: event count}; raises :class:`ValueError` on the
    first malformed file, or if the directory holds no traces at all.
    Span files (``*.spans.jsonl``) are checked against the causal-trace
    invariants (:func:`repro.obs.spans.check_span_invariants`), event
    files against the sequencing rules, Chrome traces against the
    ``trace_event`` subset we emit.
    """
    trace_dir = Path(trace_dir)
    results: Dict[str, int] = {}
    for path in sorted(trace_dir.rglob("*.jsonl")):
        rel = str(path.relative_to(trace_dir))
        if path.name.endswith(SPANS_SUFFIX):
            results[rel] = validate_spans_jsonl(path)
        else:
            results[rel] = validate_events_jsonl(path)
    for path in sorted(trace_dir.rglob("*.trace.json")):
        results[str(path.relative_to(trace_dir))] = validate_chrome_trace(path)
    if not results:
        raise ValueError(f"{trace_dir}: no trace files found")
    return results


# -- request-scoped span export ----------------------------------------

#: Span files sit beside a run's event traces: ``<label>.spans.jsonl``
#: (records) and ``<label>.spans.trace.json`` (Perfetto async spans).
SPANS_SUFFIX = ".spans.jsonl"
SPANS_CHROME_SUFFIX = ".spans.trace.json"


def write_spans_jsonl(records, path, meta: Optional[dict] = None) -> Path:
    """Write span records one-per-line; optional ``meta`` header first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def validate_spans_jsonl(path) -> int:
    """Check a span file is well formed *and* causally consistent.

    Beyond per-line JSON shape, the whole file must satisfy the span
    invariants: every span closed or explicitly dropped, children start
    inside their parents (or carry a ``late`` mark), one root per trace,
    no orphan parents.  Returns the span count.
    """
    from .spans import check_span_invariants

    records: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if "meta" in d and "sid" not in d:
                continue
            for field in ("sid", "trace", "name", "start", "status"):
                if field not in d:
                    raise ValueError(f"{path}:{lineno}: span missing {field!r}")
            records.append(d)
    problems = check_span_invariants(records)
    if problems:
        shown = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ValueError(f"{path}: span invariants violated: {shown}{more}")
    return len(records)


def spans_chrome_trace(
    records, label: str = "run", meta: Optional[dict] = None
) -> dict:
    """Chrome ``trace_event`` async spans from span records.

    Every request becomes one async nestable track (``cat="span"``,
    ``id`` = the trace/request id in hex) under a single "requests"
    process, with "b"/"e" events emitted in recursive causal order —
    parent begins before its children, ends after them — so Perfetto
    renders each request's hop tree nested.  ``late`` spans (work a
    request triggered after it completed, e.g. cache-update broadcasts)
    are emitted as top-level siblings of the root.
    """
    trace_events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "requests"},
        }
    ]

    by_trace: Dict[int, List[dict]] = {}
    for rec in records:
        by_trace.setdefault(rec["trace"], []).append(rec)

    def emit(rec: dict, kids: Dict[Optional[int], List[dict]]) -> None:
        ident = f"0x{rec['trace']:x}"
        args = {"status": rec["status"]}
        if rec.get("node") is not None:
            args["node"] = rec["node"]
        args.update(rec.get("notes", {}))
        start_ts = round(rec["start"] * _US, 3)
        base = {
            "cat": "span",
            "id": ident,
            "name": rec["name"],
            "pid": 1,
            "tid": 1,
        }
        trace_events.append(
            {"ph": "b", "ts": start_ts, "args": args, **base}
        )
        for kid in kids.get(rec["sid"], ()):
            emit(kid, kids)
        end = rec.get("end")
        trace_events.append(
            {
                "ph": "e",
                "ts": round(end * _US, 3) if end is not None else start_ts,
                **base,
            }
        )

    for trace in sorted(by_trace):
        recs = by_trace[trace]
        kids: Dict[Optional[int], List[dict]] = {}
        tops: List[dict] = []
        for rec in recs:
            if rec.get("parent") is None or rec.get("late"):
                tops.append(rec)
            else:
                kids.setdefault(rec["parent"], []).append(rec)
        for top in tops:
            emit(top, kids)

    out = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label},
    }
    if meta:
        out["otherData"].update(meta)
    return out


def export_spans(
    collector,
    trace_dir,
    label: str,
    *,
    meta: Optional[dict] = None,
) -> List[Path]:
    """Write one run's span files under ``trace_dir``; returns the paths.

    ``collector`` is a finished :class:`~repro.obs.spans.SpanCollector`.
    Like :func:`export_run`, this writes both the JSONL records and the
    Perfetto trace.
    """
    records = [span.to_record() for span in collector.spans]
    full_meta = {"sample_every": collector.sample_every}
    if meta:
        full_meta.update(meta)
    trace_dir = Path(trace_dir)
    jsonl = write_spans_jsonl(
        records, trace_dir / f"{label}{SPANS_SUFFIX}", full_meta
    )
    chrome = trace_dir / f"{label}{SPANS_CHROME_SUFFIX}"
    chrome.write_text(
        json.dumps(spans_chrome_trace(records, label, full_meta)),
        encoding="utf-8",
    )
    return [jsonl, chrome]


# -- summaries + the per-run export entry point -------------------------


def telemetry_summary(
    recorder: Optional[EventRecorder], metrics=None, bus=None
) -> dict:
    """The compact per-run telemetry dict stored with each campaign cell.

    When the run's event ``bus`` is supplied, the summary also records
    ``subscriber_errors`` — the count of subscriber callbacks that raised
    (and were isolated) during the run.  A non-zero count means some
    observer silently saw a partial event stream, so the campaign runner
    surfaces it as a run notice.
    """
    out: dict = {
        "event_total": recorder.total if recorder is not None else 0,
        "events": dict(sorted(recorder.counts.items())) if recorder is not None else {},
    }
    if bus is not None:
        out["subscriber_errors"] = bus.subscriber_errors
    if metrics is not None:
        out["metrics"] = metrics.summary()
    return out


def export_run(
    events: Iterable[SimEvent],
    trace_dir,
    label: str,
    *,
    meta: Optional[dict] = None,
) -> List[Path]:
    """Write one run's trace files under ``trace_dir``; returns the paths:
    the JSONL event log and the Perfetto (Chrome ``trace_event``) trace.
    """
    events = list(events)
    trace_dir = Path(trace_dir)
    return [
        write_events_jsonl(events, trace_dir / f"{label}.jsonl", meta),
        write_chrome_trace(events, trace_dir / f"{label}.trace.json", label, meta),
    ]


def export_traces(
    label: str,
    meta: dict,
    *,
    trace_dir=None,
    recorder: Optional[EventRecorder] = None,
    spans_dir=None,
    collector=None,
    now: float = 0.0,
) -> Tuple[List[Path], List[Path]]:
    """Write one run's event trace and span files; the one export path
    of campaign cells and the ``timeline`` command.

    The recorder's events go to ``trace_dir`` through :func:`export_run`.
    The span ``collector`` is finished at sim time ``now`` and goes to
    ``spans_dir`` through :func:`export_spans`.  A half whose directory
    is ``None`` is skipped.  ``meta`` (version, fault, seed) heads every
    file.  Returns the event paths and the span paths.
    """
    events: List[Path] = []
    spans: List[Path] = []
    if trace_dir is not None:
        events = export_run(recorder.events, trace_dir, label, meta=meta)
    if spans_dir is not None:
        collector.finish(now)
        spans = export_spans(collector, spans_dir, label, meta=meta)
    return events, spans
