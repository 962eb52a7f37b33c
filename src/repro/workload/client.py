"""Open-loop Poisson clients with the paper's timeout discipline.

Each client machine issues requests as a Poisson process, spreads them
round-robin over the server nodes (round-robin DNS), and gives up on a
request after ``request_timeout`` seconds (the paper: 2 s to connect,
6 s to complete; we account a single end-to-end deadline and a fast
failure when the server refuses the connection outright).

Successes and failures land in the shared :class:`ThroughputMonitor` —
the raw material of every timeline figure and of availability.

A client's timeout is fixed, so its deadlines fall in issue order: one
engine timer per client, armed at the oldest outstanding deadline,
times requests out, and an answer only forgets its request.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..net.fabric import Fabric
from ..net.nic import Nic
from ..net.packet import Frame
from ..obs.events import WORKLOAD_REQUEST_DONE
from ..sim.engine import Engine
from ..sim.monitor import ThroughputMonitor
from .trace import FileSet

CONNECT_TIMEOUT = 2.0
REQUEST_TIMEOUT = 6.0


class ClientMachine:
    """One client host: issues requests, tracks outcomes and latencies."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        client_id: str,
        server_ids: List[str],
        fileset: FileSet,
        monitor: ThroughputMonitor,
        rng: random.Random,
        rate: float,
        request_timeout: float = REQUEST_TIMEOUT,
    ):
        from ..press.http import HttpRequest  # local import to avoid cycle

        self._HttpRequest = HttpRequest
        self.engine = engine
        self.client_id = client_id
        self.server_ids = list(server_ids)
        self.fileset = fileset
        self.monitor = monitor
        self.rng = rng
        self.rate = rate
        self.request_timeout = request_timeout
        self.nic: Nic = fabric.attach(client_id, reports_errors=False)
        self.nic.register("http-resp", self._on_response)
        self.nic.register("http-reject", self._on_reject)
        # req_id -> issue time of every outstanding request, in issue
        # (and so deadline) order.
        self._pending: Dict[int, float] = {}
        self._deadline_armed = False
        self._rr = 0
        self._running = False
        self.latency = engine.bus.metrics.histogram(
            "workload.client.latency", client=client_id
        )
        self.completed = 0

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running or self.rate <= 0:
            return
        gap = self.rng.expovariate(self.rate)
        self.engine.call_after(gap, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self._issue_one()
        self._schedule_next()

    def _issue_one(self) -> None:
        target = self.server_ids[self._rr % len(self.server_ids)]
        self._rr += 1
        file_id = self.fileset.sample(self.rng)
        req = self._HttpRequest.fresh(self.client_id, file_id, self.engine.now)
        self._pending[req.req_id] = self.engine.now
        if not self._deadline_armed:
            # Nothing else is outstanding, so this deadline is the oldest.
            self._deadline_armed = True
            self.engine.call_after(self.request_timeout, self._on_timeout)
        spans = self.engine.bus.spans
        if spans is not None:
            spans.start(
                req.req_id,
                "request",
                self.engine.now,
                node=self.client_id,
                key=("req", req.req_id),
                file=req.file_id,
                target=target,
            )
        self.nic.send(
            # Positional (a keyword call costs about twice as much): the
            # 0 is the frame id the fabric assigns, the last argument the
            # trace id.
            Frame(self.client_id, target, 300, "http-req", req, 0, req.req_id)
        )

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _on_response(self, frame: Frame) -> None:
        req_id: int = frame.payload
        issued_at = self._pending.pop(req_id, None)
        if issued_at is None:
            return  # already timed out; the late response is wasted work
        self.latency.observe(self.engine.now - issued_at)
        self.monitor.success()
        self.completed += 1
        self._done(req_id, "ok", self.engine.now - issued_at)

    def _on_reject(self, frame: Frame) -> None:
        req_id: int = frame.payload
        issued_at = self._pending.pop(req_id, None)
        if issued_at is None:
            return
        self.monitor.failure()
        self._done(req_id, "reject", self.engine.now - issued_at)

    def _on_timeout(self) -> None:
        """The deadline timer: time out, in issue order, every request
        due by now, then re-arm at the oldest outstanding deadline."""
        now = self.engine.now
        timeout = self.request_timeout
        pending = self._pending
        due = []
        for req_id, issued_at in pending.items():
            if issued_at + timeout > now:
                break
            due.append(req_id)
        for req_id in due:
            del pending[req_id]
            self.monitor.failure()
            self._done(req_id, "timeout", timeout)
        if pending:
            oldest = next(iter(pending.values()))
            self.engine.call_at(oldest + timeout, self._on_timeout)
        else:
            self._deadline_armed = False

    def _done(self, req_id: int, outcome: str, latency: float) -> None:
        """A request reached its final outcome: close the trace, tell
        the probes (latency sketches, unavailability attribution)."""
        bus = self.engine.bus
        spans = bus.spans
        if spans is not None:
            spans.end_key(("req", req_id), self.engine.now, outcome)
        bus.publish(
            WORKLOAD_REQUEST_DONE,
            req_id=req_id,
            client=self.client_id,
            outcome=outcome,
            latency=latency,
        )

    @property
    def outstanding(self) -> int:
        return len(self._pending)


class Workload:
    """A fleet of client machines sharing one offered load."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        server_ids: List[str],
        fileset: FileSet,
        monitor: ThroughputMonitor,
        rng: random.Random,
        total_rate: float,
        n_clients: int = 2,
        request_timeout: float = REQUEST_TIMEOUT,
    ):
        self.engine = engine
        self.total_rate = total_rate
        self.clients = [
            ClientMachine(
                engine,
                fabric,
                f"client{i}",
                server_ids,
                fileset,
                monitor,
                random.Random(rng.random()),
                total_rate / n_clients,
                request_timeout=request_timeout,
            )
            for i in range(n_clients)
        ]

    def start(self) -> None:
        for c in self.clients:
            c.start()

    def stop(self) -> None:
        for c in self.clients:
            c.stop()
