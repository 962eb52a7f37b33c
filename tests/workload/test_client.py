"""Tests for client machines: arrivals, timeouts, outcome accounting."""

import random

import pytest

from repro.net.fabric import Fabric
from repro.net.packet import Frame
from repro.obs.events import WORKLOAD_REQUEST_DONE
from repro.sim.engine import Engine
from repro.sim.monitor import ThroughputMonitor
from repro.workload.client import ClientMachine, Workload
from repro.workload.trace import FileSet


class EchoServer:
    """Instant responder attached to the fabric (or silent if told)."""

    def __init__(self, engine, fabric, name, respond=True, reject=False):
        self.engine = engine
        self.fabric = fabric
        self.nic = fabric.attach(name)
        self.name = name
        self.respond = respond
        self.reject = reject
        self.seen = 0
        self.nic.register("http-req", self._on_req)

    def _on_req(self, frame):
        self.seen += 1
        req = frame.payload
        kind = None
        if self.reject:
            kind, payload = "http-reject", req.req_id
        elif self.respond:
            kind, payload = "http-resp", req.req_id
        if kind:
            self.nic.send(
                Frame(src=self.name, dst=req.client_id, size=64, kind=kind,
                      payload=payload)
            )


def build(respond=True, reject=False, rate=50.0, timeout=6.0):
    e = Engine()
    fabric = Fabric(e)
    server = EchoServer(e, fabric, "s0", respond=respond, reject=reject)
    monitor = ThroughputMonitor(e)
    client = ClientMachine(
        e, fabric, "c0", ["s0"], FileSet(n_files=100), monitor,
        random.Random(1), rate, request_timeout=timeout,
    )
    return e, server, monitor, client


def test_poisson_arrival_rate_approximately_honored():
    e, server, monitor, client = build(rate=100.0)
    client.start()
    e.run(until=20.0)
    assert server.seen == pytest.approx(2000, rel=0.15)


def test_responses_counted_as_success():
    e, _server, monitor, client = build()
    client.start()
    e.run(until=10.0)
    assert monitor.total_ok > 0
    assert monitor.total_failed == 0
    assert client.outstanding <= 1


def test_silent_server_times_out_requests():
    e, _server, monitor, client = build(respond=False, timeout=2.0)
    client.start()
    e.run(until=10.0)
    assert monitor.total_ok == 0
    assert monitor.total_failed > 0


def test_reject_fails_fast():
    e, _server, monitor, client = build(reject=True, timeout=6.0)
    client.start()
    e.run(until=1.0)
    assert monitor.total_failed > 0  # long before the 6s timeout


def test_late_response_ignored_after_timeout():
    e = Engine()
    fabric = Fabric(e)

    class SlowServer(EchoServer):
        def _on_req(self, frame):
            req = frame.payload
            self.engine.call_after(
                5.0,
                lambda: self.nic.send(
                    Frame(src=self.name, dst=req.client_id, size=64,
                          kind="http-resp", payload=req.req_id)
                ),
            )

    SlowServer(e, fabric, "s0")
    monitor = ThroughputMonitor(e)
    client = ClientMachine(
        e, fabric, "c0", ["s0"], FileSet(n_files=10), monitor,
        random.Random(1), rate=10.0, request_timeout=1.0,
    )
    client.start()
    e.run(until=20.0)
    assert monitor.total_ok == 0
    assert monitor.total_failed > 0


def test_stop_halts_arrivals():
    e, server, _monitor, client = build(rate=100.0)
    client.start()
    e.run(until=5.0)
    seen = server.seen
    client.stop()
    e.run(until=10.0)
    assert server.seen == seen


def test_round_robin_spreads_over_servers():
    e = Engine()
    fabric = Fabric(e)
    servers = [EchoServer(e, fabric, f"s{i}") for i in range(4)]
    monitor = ThroughputMonitor(e)
    client = ClientMachine(
        e, fabric, "c0", [s.name for s in servers], FileSet(n_files=10),
        monitor, random.Random(1), rate=40.0,
    )
    client.start()
    e.run(until=10.0)
    counts = [s.seen for s in servers]
    assert max(counts) - min(counts) <= 1


def test_workload_splits_rate_across_clients():
    e = Engine()
    fabric = Fabric(e)
    server = EchoServer(e, fabric, "s0")
    monitor = ThroughputMonitor(e)
    w = Workload(
        e, fabric, ["s0"], FileSet(n_files=10), monitor,
        random.Random(3), total_rate=100.0, n_clients=4,
    )
    assert [c.rate for c in w.clients] == [25.0] * 4
    w.start()
    e.run(until=10.0)
    assert server.seen == pytest.approx(1000, rel=0.2)


def test_latency_accounting():
    e, _server, monitor, client = build()
    client.start()
    e.run(until=5.0)
    assert client.completed > 0


def test_latency_histogram_lives_in_the_engine_registry():
    e, _server, _monitor, client = build()
    client.start()
    e.run(until=5.0)
    histograms = e.bus.metrics.summary()["histograms"]
    assert histograms["workload.client.latency{client=c0}"]["count"] == (
        client.completed
    )


def test_deadlines_fire_in_issue_order_from_one_timer_per_client():
    """A server that never answers, except once, far too late.

    Every request times out at exactly its issue time plus the client's
    timeout, in issue order; the late answer changes nothing; and the
    engine holds a bounded number of timers however many requests are
    outstanding, because the client keeps one deadline timer, not one
    per request.
    """
    e = Engine()
    fabric = Fabric(e)
    issued = {}

    class BlackHole(EchoServer):
        def _on_req(self, frame):
            req = frame.payload
            issued[req.req_id] = req.sent_at
            if len(issued) == 1:  # answer the first request 1 s too late
                self.engine.call_after(
                    7.0,
                    self.nic.send,
                    Frame(src=self.name, dst=req.client_id, size=64,
                          kind="http-resp", payload=req.req_id),
                )

    BlackHole(e, fabric, "s0")
    monitor = ThroughputMonitor(e)
    client = ClientMachine(
        e, fabric, "c0", ["s0"], FileSet(n_files=10), monitor,
        random.Random(1), rate=100.0, request_timeout=6.0,
    )
    done = []
    e.bus.subscribe(
        lambda ev: done.append((e.now, ev.fields)),
        names=[WORKLOAD_REQUEST_DONE],
    )
    client.start()
    for t in range(1, 21):
        e.run(until=float(t))
        assert e.pending <= 8, (t, e.pending, client.outstanding)
    assert client.outstanding > 400
    assert monitor.total_ok == 0
    assert len(done) == monitor.total_failed > 1000
    ids = [f["req_id"] for _t, f in done]
    assert ids == sorted(ids) == sorted(issued)[: len(ids)]
    for at, f in done:
        assert f["outcome"] == "timeout" and f["latency"] == 6.0
        assert at == issued[f["req_id"]] + 6.0
