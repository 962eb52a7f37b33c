"""Exporters: JSONL round-trip on a real fault run, Chrome trace shape,
and the validators backing the CI trace-smoke job."""

import json

import pytest

from repro.faults.spec import FaultKind
from repro.obs.bus import EventRecorder, SimEvent
from repro.obs.events import FAULT_CLEARED, FAULT_INJECTED
from repro.obs.exporters import (
    chrome_trace,
    export_run,
    read_events_jsonl,
    telemetry_summary,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_trace_dir,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.experiments.phase1 import run_single_fault
from repro.experiments.settings import Phase1Settings
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED

FAST = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=1234,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=1,
)


@pytest.fixture(scope="module")
def fault_run_events():
    """One small traced link-down run, shared across this module."""
    recorder = EventRecorder(keep_events=True)
    run_single_fault(
        ALL_VERSIONS_EXTENDED["TCP-PRESS"], FaultKind.LINK_DOWN, FAST,
        recorder=recorder,
    )
    assert recorder.events, "traced run produced no events"
    return recorder


def test_jsonl_round_trips_a_fault_run(fault_run_events, tmp_path):
    events = fault_run_events.events
    path = write_events_jsonl(events, tmp_path / "run.jsonl",
                              meta={"seed": 1234})
    back = read_events_jsonl(path)
    assert back == events
    assert validate_events_jsonl(path) == len(events)


def test_fault_run_publishes_inject_and_clear(fault_run_events):
    names = fault_run_events.counts
    assert names.get(FAULT_INJECTED) == 1
    assert names.get(FAULT_CLEARED) == 1
    assert names.get("net.frame.drop", 0) > 0


def test_chrome_trace_from_fault_run_validates(fault_run_events, tmp_path):
    path = write_chrome_trace(
        fault_run_events.events, tmp_path / "run.trace.json", label="t"
    )
    assert validate_chrome_trace(path) > 0
    doc = json.loads(path.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert phases <= {"M", "i", "X"}
    # The injected/cleared pair collapses into one duration span.
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["dur"] == pytest.approx(40.0 * 1e6)


def test_chrome_trace_tracks_per_node_and_layer():
    events = [
        SimEvent(time=1.0, seq=1, name="press.cache.hit", node="n0"),
        SimEvent(time=2.0, seq=2, name="osim.node.crash", node="n0"),
        SimEvent(time=3.0, seq=3, name="press.cache.hit", node="n1"),
        SimEvent(time=4.0, seq=4, name="net.frame.drop"),  # node-less
    ]
    doc = chrome_trace(events, label="unit")
    procs = {
        e["args"]["name"]: e["pid"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert set(procs) == {"n0", "n1", "cluster"}
    threads = [
        e for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    # n0 carries two layers (press + osim); n1 and cluster one each.
    by_pid = {}
    for t in threads:
        by_pid.setdefault(t["pid"], set()).add(t["args"]["name"])
    assert by_pid[procs["n0"]] == {"press", "osim"}
    assert by_pid[procs["n1"]] == {"press"}
    assert by_pid[procs["cluster"]] == {"net"}
    # Sim seconds -> microseconds.
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["ts"] == pytest.approx(1.0 * 1e6)


def test_unclosed_fault_falls_back_to_instant():
    events = [
        SimEvent(time=5.0, seq=1, name=FAULT_INJECTED, node="n0",
                 fields={"fault": "node-crash@n0"}),
    ]
    doc = chrome_trace(events)
    kinds = [(e["ph"], e.get("name")) for e in doc["traceEvents"] if e["ph"] != "M"]
    assert kinds == [("i", FAULT_INJECTED)]


def test_validate_events_jsonl_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"time": 1.0, "seq": 1}\n')  # missing name
    with pytest.raises(ValueError, match="missing 'name'"):
        validate_events_jsonl(bad)
    nonmono = tmp_path / "nonmono.jsonl"
    nonmono.write_text(
        '{"time": 1.0, "seq": 2, "name": "a"}\n'
        '{"time": 2.0, "seq": 1, "name": "b"}\n'
    )
    with pytest.raises(ValueError, match="not increasing"):
        validate_events_jsonl(nonmono)


def test_validate_chrome_trace_rejects_bad_files(tmp_path):
    p = tmp_path / "t.trace.json"
    p.write_text(json.dumps({"traceEvents": [{"ph": "i", "name": "x"}]}))
    with pytest.raises(ValueError, match="missing"):
        validate_chrome_trace(p)
    p.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace(p)


def test_export_run_and_validate_trace_dir(fault_run_events, tmp_path):
    paths = export_run(
        fault_run_events.events, tmp_path, "TCP-PRESS__link-down",
        meta={"version": "TCP-PRESS"},
    )
    assert [p.name for p in paths] == [
        "TCP-PRESS__link-down.jsonl",
        "TCP-PRESS__link-down.trace.json",
    ]
    counts = validate_trace_dir(tmp_path)
    assert set(counts) == {p.name for p in paths}
    assert all(n > 0 for n in counts.values())


def test_validate_trace_dir_empty_raises(tmp_path):
    with pytest.raises(ValueError, match="no trace files"):
        validate_trace_dir(tmp_path)


def test_telemetry_summary_shape(fault_run_events):
    s = telemetry_summary(fault_run_events)
    assert s["event_total"] == fault_run_events.total
    assert s["events"][FAULT_INJECTED] == 1
    assert list(s["events"]) == sorted(s["events"])
    assert json.loads(json.dumps(s)) == s  # JSON-safe
