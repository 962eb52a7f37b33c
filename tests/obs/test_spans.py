"""Request-scoped causal tracing (repro.obs.spans).

Three layers under test: the collector mechanics (parenting, keyed
close, sampling, drop-on-finish), the invariant checker the
``trace-validate`` CLI runs over exported span files, and the
critical-path extractor.  The end-to-end tests attach a collector to a
real cluster run and assert the resulting span set is invariant-clean
for both transports, with and without a fault.
"""

from __future__ import annotations

import pytest

from repro.experiments.phase1 import run_baseline, run_single_fault
from repro.experiments.settings import Phase1Settings
from repro.faults.spec import FaultKind
from repro.obs.spans import (
    STATUS_DROPPED,
    SpanCollector,
    check_span_invariants,
    critical_path,
)
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED
from repro.sim.engine import Engine

# ----------------------------------------------------------------------
# Collector mechanics
# ----------------------------------------------------------------------


def test_root_then_nested_children():
    c = SpanCollector()
    root = c.start(1, "request", 0.0, node="client0")
    child = c.start(1, "serve", 1.0, node="n0")
    grand = c.start(1, "disk", 2.0, node="n0")
    assert root.parent is None and child.parent == root.sid
    assert grand.parent == child.sid
    c.end(grand, 3.0)
    sibling = c.start(1, "net", 4.0)
    assert sibling.parent == child.sid  # innermost *open* span
    c.end(sibling, 5.0)
    c.end(child, 6.0)
    c.end(root, 7.0, "ok")
    assert [s.status for s in c.spans] == ["ok"] * 4
    assert check_span_invariants(s.to_record() for s in c.spans) == []


def test_keyed_close_from_another_component():
    c = SpanCollector()
    c.start(7, "request", 0.0, key=("req", 7))
    c.start(7, "msg", 1.0, key=("msg", 42))
    c.end_key(("msg", 42), 2.0)
    c.end_key(("req", 7), 3.0, "ok")
    assert c.find(("msg", 42)) is None  # key released on close
    assert check_span_invariants(s.to_record() for s in c.spans) == []


def test_closing_a_superseded_keyed_span_keeps_the_new_one():
    """A later span re-registered the key: closing the first must not
    release the key from under the second."""
    c = SpanCollector()
    first = c.start(7, "net.frame", 0.0, key=("net", 1))
    second = c.start(7, "net.frame", 1.0, key=("net", 1))
    c.end(first, 2.0)
    assert c.find(("net", 1)) is second
    c.end(second, 3.0)
    assert c.find(("net", 1)) is None


def test_attach_fills_the_bus_span_slot():
    engine = Engine()
    assert engine.bus.spans is None
    c = SpanCollector().attach(engine.bus)
    assert engine.bus.spans is c


def test_end_is_idempotent_and_none_safe():
    c = SpanCollector()
    span = c.start(1, "request", 0.0)
    c.end(span, 1.0, "ok")
    c.end(span, 9.0, "timeout")  # second close ignored
    assert span.end == 1.0 and span.status == "ok"
    c.end(None, 5.0)  # unsampled sites pass None freely
    c.end_key(("msg", 999), 5.0)  # unknown key is a no-op


def test_late_children_after_root_closed():
    """A broadcast update lands after its tipping request finished."""
    c = SpanCollector()
    root = c.start(3, "request", 0.0, key=("req", 3))
    c.end_key(("req", 3), 2.0, "ok")
    late = c.start(3, "cache-update", 5.0)
    assert late.parent == root.sid and late.late
    c.end(late, 6.0)
    assert check_span_invariants(s.to_record() for s in c.spans) == []


def test_sampling_keeps_every_nth_trace():
    c = SpanCollector(sample_every=10)
    kept = [t for t in range(1, 101) if c.wants(t)]
    assert kept == list(range(10, 101, 10))
    assert c.start(11, "request", 0.0) is None
    assert c.start(20, "request", 0.0) is not None


def test_sample_every_must_be_positive():
    with pytest.raises(ValueError):
        SpanCollector(sample_every=0)


def test_finish_drops_open_spans():
    c = SpanCollector()
    c.start(1, "request", 0.0, key=("req", 1))
    c.start(1, "msg", 1.0, key=("msg", 5))
    c.finish(10.0)
    assert all(s.status == STATUS_DROPPED for s in c.spans)
    assert all(s.end == 10.0 for s in c.spans)
    assert c.find(("msg", 5)) is None
    assert check_span_invariants(s.to_record() for s in c.spans) == []


def test_summary_counts_by_status():
    c = SpanCollector()
    a = c.start(1, "request", 0.0)
    c.end(a, 1.0, "ok")
    b = c.start(2, "request", 0.0)
    c.end(b, 1.0, "timeout")
    c.start(3, "request", 0.0)
    c.finish(2.0)
    s = c.summary()
    assert s["spans"] == 3 and s["traces"] == 3
    assert s["by_status"] == {"dropped": 1, "ok": 1, "timeout": 1}


# ----------------------------------------------------------------------
# The invariant checker
# ----------------------------------------------------------------------


def _rec(sid, trace, parent, name, start, end, status="ok", **extra):
    r = {
        "sid": sid,
        "trace": trace,
        "parent": parent,
        "name": name,
        "node": None,
        "start": start,
        "end": end,
        "status": status,
    }
    r.update(extra)
    return r


def test_checker_accepts_clean_records():
    records = [
        _rec(1, 1, None, "request", 0.0, 5.0),
        _rec(2, 1, 1, "serve", 1.0, 4.0),
    ]
    assert check_span_invariants(records) == []


def test_checker_flags_never_closed():
    bad = check_span_invariants([_rec(1, 1, None, "request", 0.0, None, "open")])
    assert any("never closed" in p for p in bad)


def test_checker_flags_child_outside_parent():
    records = [
        _rec(1, 1, None, "request", 0.0, 5.0),
        _rec(2, 1, 1, "serve", 6.0, 7.0),  # starts after parent ended
    ]
    assert any("after parent" in p for p in check_span_invariants(records))
    records[1]["late"] = True  # explicitly marked late -> allowed
    assert check_span_invariants(records) == []


def test_checker_flags_orphans_and_duplicate_roots():
    bad = check_span_invariants(
        [
            _rec(1, 1, None, "request", 0.0, 5.0),
            _rec(2, 1, None, "request", 1.0, 2.0),  # second root
            _rec(3, 2, 99, "serve", 0.0, 1.0),  # missing parent
            _rec(4, 3, 1, "serve", 0.0, 1.0),  # parent in other trace
        ]
    )
    assert any("second root" in p for p in bad)
    assert any("does not exist" in p for p in bad)
    assert any("belongs to trace" in p for p in bad)
    assert any("no root" in p for p in bad)


# ----------------------------------------------------------------------
# The critical-path extractor
# ----------------------------------------------------------------------


def test_critical_path_decomposes_self_time():
    c = SpanCollector()
    root = c.start(1, "request", 0.0)
    serve = c.start(1, "serve", 2.0)
    disk = c.start(1, "disk", 3.0)
    c.end(disk, 7.0)
    c.end(serve, 8.0)
    c.end(root, 10.0, "ok")
    cp = critical_path(c.spans)
    assert cp["traces"] == 1
    assert cp["total_latency"] == 10.0
    hops = cp["hops"]
    # Root owns what no child covers: [0,2) + [8,10) = 4.
    assert hops["request"]["self_time"] == 4.0
    assert hops["serve"]["self_time"] == 2.0  # [2,3) + [7,8)
    assert hops["disk"]["self_time"] == 4.0
    total_self = sum(h["self_time"] for h in hops.values())
    assert total_self == pytest.approx(cp["total_latency"])


def test_critical_path_merges_overlapping_children():
    c = SpanCollector()
    root = c.start(1, "request", 0.0)
    a = c.start(1, "serve", 1.0)
    c.end(a, 4.0)
    b = c.start(1, "net", 3.0)  # overlaps [3,4) with serve
    c.end(b, 6.0)
    c.end(root, 8.0, "ok")
    hops = critical_path(c.spans)["hops"]
    # Root self time excludes the union [1,6), not the sum of children.
    assert hops["request"]["self_time"] == 3.0


# ----------------------------------------------------------------------
# End to end: real cluster runs are invariant-clean
# ----------------------------------------------------------------------

_SETTINGS = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=11,
    warm=10.0,
    fault_at=20.0,
    fault_duration=25.0,
    post_recovery=30.0,
    tail=20.0,
    replications=1,
)


def _run_with_spans(version, fault=None):
    spans = SpanCollector()
    config = ALL_VERSIONS_EXTENDED[version]
    if fault is None:
        _tn, cluster = run_baseline(config, _SETTINGS, spans=spans)
    else:
        _rec, cluster = run_single_fault(
            config, fault, _SETTINGS, spans=spans
        )
    spans.finish(cluster.engine.now)
    return spans, cluster


@pytest.mark.parametrize("version", ["TCP-PRESS", "VIA-PRESS-5"])
def test_baseline_run_spans_are_invariant_clean(version):
    spans, _cluster = _run_with_spans(version)
    assert spans.n_traces > 50  # the run really was traced
    problems = check_span_invariants(s.to_record() for s in spans.spans)
    assert problems == []
    names = {s.name for s in spans.spans}
    # The whole request path shows up: client, server, fabric, transport.
    assert "request" in names and "http.serve" in names
    assert "net.frame" in names
    # Fault-free smoke runs never time a request out; the only losses
    # are backlog rejects under bursty load and end-of-run truncation.
    roots = [s for s in spans.spans if s.parent is None]
    assert all(r.status in ("ok", "reject", "dropped") for r in roots)
    assert sum(r.status == "ok" for r in roots) > 0.9 * len(roots)


@pytest.mark.parametrize(
    "version,fault",
    [
        ("TCP-PRESS", FaultKind.LINK_DOWN),
        ("VIA-PRESS-5", FaultKind.APP_CRASH),
    ],
)
def test_faulted_run_spans_are_invariant_clean(version, fault):
    spans, _cluster = _run_with_spans(version, fault)
    problems = check_span_invariants(s.to_record() for s in spans.spans)
    assert problems == []
    roots = [s for s in spans.spans if s.parent is None]
    outcomes = {r.status for r in roots}
    # The fault actually lost or refused something client-visible.
    assert outcomes & {"timeout", "reject"}
    cp = critical_path(spans.spans)
    # After finish() every root has an end, so every trace contributes.
    assert cp["traces"] == len(roots)
    assert cp["total_latency"] > 0


def test_sampled_run_subsets_the_trace_population():
    spans, _cluster = _run_with_spans("TCP-PRESS")
    sampled = SpanCollector(sample_every=7)
    config = ALL_VERSIONS_EXTENDED["TCP-PRESS"]
    _tn, cluster = run_baseline(config, _SETTINGS, spans=sampled)
    sampled.finish(cluster.engine.now)
    assert check_span_invariants(s.to_record() for s in sampled.spans) == []
    full_traces = {s.trace for s in spans.spans}
    sampled_traces = {s.trace for s in sampled.spans}
    assert sampled_traces < full_traces
    assert all(t % 7 == 0 for t in sampled_traces)


def test_span_collection_requires_a_cold_run():
    config = ALL_VERSIONS_EXTENDED["TCP-PRESS"]
    cluster = object()
    with pytest.raises(ValueError, match="cold run"):
        run_baseline(
            config, _SETTINGS, warm_cluster=cluster, spans=SpanCollector()
        )
