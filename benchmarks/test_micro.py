"""Microbenchmarks of the simulation substrate.

Unlike the figure benches these are true hot-loop measurements: they keep
the reproduction honest about its own performance (the full campaign runs
hundreds of simulated minutes, so engine overhead matters).

The CI gate (``benchmarks/bench_gate.py``) runs this file and compares
each bench against the committed ``BENCH_micro.json`` baseline; see
PERFORMANCE.md for how the baseline was measured and how to update it.
"""

import dataclasses

import pytest

from repro.net.fabric import Fabric
from repro.osim.node import Node
from repro.sim.engine import Engine
from repro.transports.base import Message
from repro.transports.tcp import TcpTransport
from repro.transports.tcp.params import DEFAULT_TCP_PARAMS
from repro.transports.via import ViaTransport

#: The paper's testbed MTU: every TCP message is segmented into MSS-sized
#: frames, so the campaign-representative TCP shape uses a 1460-byte MSS
#: rather than the page-sized default segments.
MSS_1460_PARAMS = dataclasses.replace(DEFAULT_TCP_PARAMS, segment_size=1460)


def test_engine_event_stream(benchmark):
    """The campaign's dominant engine pattern: deliver, cancel, re-arm.

    Every delivered TCP segment cancels a pending retransmission timer
    and arms a fresh one ~0.2 s out, so the heap serves a stream of
    near-term events threaded through a band of long-lived timers that
    almost never fire.  This is the shape the timer freelist, the
    head-slot, and incremental tombstone compaction target.
    """

    def run_stream():
        e = Engine()
        count = [0]
        pending = [None]

        def on_rto():
            pending[0] = None

        def deliver():
            count[0] += 1
            timer = pending[0]
            if timer is not None:
                timer.cancel()
                pending[0] = None
            if count[0] < 10_000:
                pending[0] = e.call_after(0.2, on_rto)
                e.call_after(65e-6, deliver)

        e.call_after(65e-6, deliver)
        e.run()
        return count[0]

    assert benchmark(run_stream) == 10_000


def test_engine_event_stream_span_guard(benchmark):
    """The deliver/cancel/re-arm stream with the span guard per delivery.

    Request-scoped tracing put a ``spans = bus.spans; if spans is not
    None`` probe at every hot event site (fabric hop, TCP segment, VIA
    descriptor, HTTP serve).  With collection off — every campaign run
    unless ``--spans`` is passed — that probe is the *whole* cost of the
    instrumentation, so this bench runs the exact workload of
    ``test_engine_event_stream`` with the probe added to each delivery.
    The paired bench-gate claim (``span_guard_zero_overhead``) holds the
    difference within 2%.
    """

    def run_stream():
        e = Engine()
        count = [0]
        pending = [None]

        def on_rto():
            pending[0] = None

        def deliver():
            spans = e.bus.spans
            if spans is not None:  # collection is off in this bench
                spans.start(count[0], "net.frame", e.now)
            count[0] += 1
            timer = pending[0]
            if timer is not None:
                timer.cancel()
                pending[0] = None
            if count[0] < 10_000:
                pending[0] = e.call_after(0.2, on_rto)
                e.call_after(65e-6, deliver)

        e.call_after(65e-6, deliver)
        e.run()
        return count[0]

    assert benchmark(run_stream) == 10_000


def test_engine_event_throughput(benchmark):
    """Schedule+dispatch cost of a bare chained engine event."""

    def run_10k():
        e = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                e.call_after(0.001, tick)

        e.call_after(0.001, tick)
        e.run()
        return count[0]

    assert benchmark(run_10k) == 10_000


def test_engine_heap_churn(benchmark):
    """Cost with many concurrent timers (cancellations included)."""

    def run_churn():
        e = Engine()
        timers = [e.call_after(float(i % 97) + 1.0, lambda: None) for i in range(5000)]
        for t in timers[::2]:
            t.cancel()
        e.run()
        return e.events_processed

    assert benchmark(run_churn) == 2500


def _transport_pair(transport_cls, params=None):
    from repro.transports.via.params import DEFAULT_VIA_PARAMS

    e = Engine()
    fabric = Fabric(e)
    nodes = {}
    transports = {}
    kwargs = {}
    if transport_cls is ViaTransport:
        # The burst below exceeds PRESS's default per-peer shed limit;
        # for a raw throughput measurement, widen the queue.
        kwargs["params"] = dataclasses.replace(
            DEFAULT_VIA_PARAMS, app_queue_limit=10_000
        )
    if params is not None:
        kwargs["params"] = params
    for name in ("a", "b"):
        node = Node(e, name, fabric.attach(name))
        node.process.start()
        nodes[name] = node
        transports[name] = transport_cls(e, node, **kwargs)
    received = [0]
    transports["b"].on_message = lambda p, m: received.__setitem__(
        0, received[0] + 1
    )
    ok = []
    ch = transports["a"].connect("b", ok.append)
    e.run(until=5.0)
    assert ok == [True]
    return e, ch, received


def test_tcp_roundtrip_stream(benchmark):
    """Campaign-shaped TCP round trip: 8 KB messages over MSS-1460 frames.

    Each message is segmented into ~6 MSS-sized frames, every frame earns
    a cumulative ACK, and the window keeps dozens of frames in flight —
    the shape of the intra-cluster PRESS traffic the fast path was built
    for (one delivery event per frame instead of three hops plus three
    closures).
    """

    def run_msgs():
        e, ch, received = _transport_pair(TcpTransport, params=MSS_1460_PARAMS)
        for _ in range(500):
            ch.send(Message("m", 8192))
        e.run(until=100.0)
        return received[0]

    assert benchmark(run_msgs) == 500


def test_tcp_message_throughput(benchmark):
    """End-to-end simulated cost per TCP message (framing+segments+acks)."""

    def run_msgs():
        e, ch, received = _transport_pair(TcpTransport)
        for _ in range(500):
            ch.send(Message("m", 1024))
        e.run(until=100.0)
        return received[0]

    assert benchmark(run_msgs) == 500


def test_via_message_throughput(benchmark):
    """End-to-end simulated cost per VIA message (descriptor+credits)."""

    def run_msgs():
        e, ch, received = _transport_pair(ViaTransport)
        for _ in range(500):
            ch.send(Message("m", 1024))
        e.run(until=100.0)
        return received[0]

    assert benchmark(run_msgs) == 500


def test_bus_publish_fastpath(benchmark):
    """Zero-subscriber publish() cost — the observability tax on every
    hot-path event site when nothing is listening.

    The observatory made buckets and process lifecycle publish on the
    bus, so the inactive-bus early-out now guards the monitor's
    completion path too; this bench keeps it an attribute load plus a
    set probe, not an event construction.
    """
    from repro.obs.events import CACHE_HIT

    def run_publishes():
        bus = Engine().bus
        n = 0
        for _ in range(100_000):
            bus.publish(CACHE_HIT, file="f0")
            n += 1
        return n

    assert benchmark(run_publishes) == 100_000


def test_observatory_request_done(benchmark):
    """The per-request observability tax: ``workload.request.done``
    publishes through the Observatory every campaign cell attaches.

    Each publish builds one ``SimEvent`` and feeds the count-only
    recorder, the stage detector, the latency probe (P² sketches) and
    the attribution probe.  Latencies are exponential with a few
    rejects and timeouts mixed in, like a fault-free steady state.
    """
    import random

    from repro.obs.bus import EventRecorder
    from repro.obs.events import WORKLOAD_REQUEST_DONE
    from repro.obs.observatory import Observatory

    rng = random.Random(7)
    done = [
        ("ok" if rng.random() < 0.98 else "timeout", rng.expovariate(40.0))
        for _ in range(20_000)
    ]

    def run_publishes():
        bus = Engine().bus
        obs = Observatory(recorder=EventRecorder(keep_events=False)).attach(bus)
        for req_id, (outcome, latency) in enumerate(done):
            bus.publish(
                WORKLOAD_REQUEST_DONE,
                req_id=req_id,
                client="c0",
                outcome=outcome,
                latency=latency,
            )
        return obs.latency.overall.count + obs.latency.outcomes.get("timeout", 0)

    assert benchmark(run_publishes) == 20_000


def test_cluster_simulation_rate(benchmark):
    """Simulated-seconds per wall-second for a fault-free PRESS cluster."""
    from repro.press.cluster import SMOKE_SCALE, PressCluster
    from repro.press.config import VIA_PRESS_5

    def run_cluster():
        c = PressCluster(VIA_PRESS_5, scale=SMOKE_SCALE, seed=1)
        c.start()
        c.run_until(30.0)
        return c.engine.events_processed

    events = benchmark(run_cluster)
    assert events > 1000


def test_cluster_64node(benchmark):
    """A 64-node cluster in the single event loop.

    The paper's testbed has 4 nodes; this keeps the cost of a much
    larger cluster (``--nodes 64``) under the regression gate.
    """
    from repro.press.cluster import SMOKE_SCALE, PressCluster
    from repro.press.config import VIA_PRESS_5

    def run_cluster():
        c = PressCluster(
            VIA_PRESS_5, n_nodes=64, scale=SMOKE_SCALE, seed=1,
            utilization=0.5,
        )
        c.start()
        c.run_until(15.0)
        return c.engine.events_processed

    events = benchmark(run_cluster)
    assert events > 10_000


@pytest.mark.parametrize("mode", ["cold", "warm"])
def test_campaign_warm_vs_cold(benchmark, mode):
    """One warm group (baseline + two faults), cold vs warm-started.

    The cold side re-simulates the shared 240-simulated-second
    pre-injection prefix in every cell; the warm side restores it from a
    checkpoint (simulated once, then amortized across rounds through the
    in-process blob cache — the steady state of a multi-rep campaign).
    The pair is the gate for the warm-start speedup claim recorded in
    BENCH_micro.json.
    """
    from repro.experiments import warmstart
    from repro.experiments.runner import run_campaign
    from repro.experiments.settings import Phase1Settings
    from repro.experiments.store import MemoryStore
    from repro.faults.spec import FaultKind
    from repro.press.cluster import SMOKE_SCALE

    # A paper-faithful warm-segment layout: a long pre-injection window
    # (warm + fault_at) dominating each cell, the regime the checkpoint
    # cache targets (the compressed test layouts shrink that window
    # until warmup no longer dominates — see PERFORMANCE.md).
    settings = Phase1Settings(
        scale=SMOKE_SCALE,
        seed=11,
        warm=60.0,
        fault_at=180.0,
        fault_duration=40.0,
        post_recovery=60.0,
        tail=40.0,
        replications=1,
    )
    faults = [FaultKind.LINK_DOWN, FaultKind.NODE_CRASH]

    def run_group():
        _sets, report = run_campaign(
            settings,
            versions=["TCP-PRESS"],
            faults=faults,
            store=MemoryStore(),
            use_cache=False,
            warm_start=(mode == "warm"),
        )
        return len(report.cells)

    if mode == "warm":
        # Pay the one-off checkpoint capture outside the timed rounds.
        warmstart._memory_blobs.clear()
        run_group()
    assert benchmark(run_group) == 3
