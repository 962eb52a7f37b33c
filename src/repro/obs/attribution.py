"""Tail-latency probes and unavailability attribution.

The paper's availability numbers say *how many* requests were lost per
fault; they never say *why* each one was lost.  This module closes that
gap with two always-on, strictly passive bus subscribers the
:class:`~repro.obs.observatory.Observatory` bundles into every campaign
cell:

* :class:`LatencyProbe` — folds every completed request's latency into
  streaming P² sketches (:mod:`repro.obs.sketch`), overall and per
  online stage (A–G from the :class:`~repro.obs.observatory.StageDetector`),
  so the report can show p50/p95/p99/p999 bands per (version, fault,
  stage) without storing raw samples.

* :class:`AttributionProbe` — charges every lost request (reject or
  timeout) and every SLO-violating slow success to the *mechanism* that
  plausibly caused it, by overlapping the request's lifetime with the
  mechanism windows the event stream exposes:

  =====================  ============================================
  mechanism              charged when the request's lifetime overlaps
  =====================  ============================================
  ``fail-fast``          (rejects always: the kernel RST / backlog
                         shed is the fail-fast error return itself)
  ``operator-reset``     the window after an "operator-reset" mark,
                         while the service restarts
  ``membership-reconfig``  the window after a ``press.membership.exclude``
                         (requests in flight to the excluded node, or
                         racing the ownership handoff)
  ``tcp-retransmit``     a ``tcp.endpoint.retransmit`` fired during the
                         request's lifetime (go-back-N backoff stall)
  ``cache-warmup``       the window after ``press.membership.joined``
                         while the rejoined node refills its cache
  ``unattributed``       none of the above
  =====================  ============================================

  Timeouts are tried against mechanisms in the order reset → reconfig →
  retransmit → warmup (the aggressive mechanisms first); slow successes
  in the order warmup → reset → reconfig → retransmit, because a slow
  *served* request most often paid a disk fetch on a cold cache.

Both probes only read events and accumulate state — they never publish,
schedule, or touch component state — so bundling them cannot change a
run's results (guarded by the determinism tests).  Their accumulated
state rides along in warm-start checkpoints via ``snapshot_state``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .events import (
    ANNOTATION,
    MEMBERSHIP_EXCLUDE,
    MEMBERSHIP_JOINED,
    TCP_RETRANSMIT,
    WORKLOAD_REQUEST_DONE,
)
from .sketch import QuantileSketch

#: Mechanism labels the attribution report charges losses to.
MECH_FAIL_FAST = "fail-fast"
MECH_RESET = "operator-reset"
MECH_RECONFIG = "membership-reconfig"
MECH_RETRANSMIT = "tcp-retransmit"
MECH_WARMUP = "cache-warmup"
MECH_UNATTRIBUTED = "unattributed"

#: Stable row order for reports and dashboards.
MECHANISMS = (
    MECH_FAIL_FAST,
    MECH_RESET,
    MECH_RECONFIG,
    MECH_RETRANSMIT,
    MECH_WARMUP,
    MECH_UNATTRIBUTED,
)


class LatencyProbe:
    """Per-stage latency sketches fed by ``workload.request.done``.

    Only served (``ok``) requests enter the sketches — a timeout's
    "latency" is the client's timer, not a service time.  The stage key
    is the detector's classification at the instant the request
    *completed*; runs without a detector fall back to a single
    ``"normal"`` bucket.

    While a run has seen a single stage (every fault-free run), the
    per-stage sketch would receive exactly the overall sketch's samples,
    so ``by_stage[stage]`` *is* ``overall`` and each latency is folded
    once.  The second stage to appear splits them: the first stage gets
    its own copy of the shared state, and from then on every sketch is
    fed separately.
    """

    SUBSCRIBES = (WORKLOAD_REQUEST_DONE,)

    def __init__(self, detector=None):
        self.detector = detector
        self.overall = QuantileSketch()
        self.by_stage: Dict[str, QuantileSketch] = {}
        self.outcomes: Dict[str, int] = {}

    def attach(self, bus) -> "LatencyProbe":
        bus.subscribe(self._on_event, names=list(self.SUBSCRIBES))
        return self

    def _on_event(self, event) -> None:
        f = event.fields
        outcome = f["outcome"]
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome != "ok":
            return
        latency = f["latency"]
        stage = self.detector.stage if self.detector is not None else "normal"
        sketch = self.by_stage.get(stage)
        if sketch is None:
            sketch = self._add_stage(stage)
        overall = self.overall
        overall.observe(latency)
        if sketch is not overall:
            sketch.observe(latency)

    def _add_stage(self, stage: str) -> QuantileSketch:
        by_stage = self.by_stage
        if not by_stage:
            by_stage[stage] = self.overall
            return self.overall
        for name, sketch in by_stage.items():
            if sketch is self.overall:
                by_stage[name] = sketch.copy()
        sketch = by_stage[stage] = QuantileSketch()
        return sketch

    def summary(self) -> dict:
        """JSON-ready digest stored in cell payloads."""
        return {
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "overall": self.overall.to_dict(),
            "by_stage": {
                stage: sketch.to_dict()
                for stage, sketch in sorted(self.by_stage.items())
            },
        }

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        return {
            "outcomes": dict(sorted(self.outcomes.items())),
            "overall": self.overall.snapshot_state(),
            "by_stage": {
                stage: sketch.snapshot_state()
                for stage, sketch in sorted(self.by_stage.items())
            },
        }


@dataclass(frozen=True)
class AttributionConfig:
    """Mechanism window widths (seconds of sim time)."""

    #: how long after an exclude the reconfiguration still claims losses
    reconfig_window: float = 5.0
    #: how long after a rejoin the cold cache still claims slowness
    warmup_window: float = 20.0
    #: how long after an operator reset the restart claims losses
    reset_window: float = 30.0
    #: an ``ok`` request slower than this violates the latency SLO
    slo_latency: float = 1.0
    #: retransmit timestamps older than this never overlap a request
    #: lifetime any more and are pruned (client request timeout + slack)
    rto_horizon: float = 10.0

    def to_dict(self) -> dict:
        return {
            "reconfig_window": self.reconfig_window,
            "warmup_window": self.warmup_window,
            "reset_window": self.reset_window,
            "slo_latency": self.slo_latency,
            "rto_horizon": self.rto_horizon,
        }


DEFAULT_ATTRIBUTION = AttributionConfig()


class AttributionProbe:
    """Charges every lost / SLO-violating request to a mechanism."""

    SUBSCRIBES = (
        WORKLOAD_REQUEST_DONE,
        MEMBERSHIP_EXCLUDE,
        MEMBERSHIP_JOINED,
        TCP_RETRANSMIT,
        ANNOTATION,
    )

    def __init__(self, config: AttributionConfig = DEFAULT_ATTRIBUTION):
        self.config = config
        self.requests = 0
        self.lost: Dict[str, int] = {m: 0 for m in MECHANISMS}
        self.slow: Dict[str, int] = {m: 0 for m in MECHANISMS}
        self._windows: Dict[str, List[Tuple[float, float]]] = {
            MECH_RESET: [],
            MECH_RECONFIG: [],
            MECH_WARMUP: [],
        }
        self._rto_times: Deque[float] = deque()

    def attach(self, bus) -> "AttributionProbe":
        bus.subscribe(self._on_event, names=list(self.SUBSCRIBES))
        return self

    # -- window bookkeeping --------------------------------------------
    def _open_window(self, mech: str, start: float, width: float) -> None:
        windows = self._windows[mech]
        end = start + width
        if windows and windows[-1][1] >= start:
            # Overlapping triggers extend the existing window.
            windows[-1] = (windows[-1][0], max(windows[-1][1], end))
        else:
            windows.append((start, end))

    def _overlaps(self, mech: str, lo: float, hi: float) -> bool:
        return any(s < hi and e > lo for s, e in self._windows[mech])

    def _rto_in(self, lo: float, hi: float) -> bool:
        return any(lo <= t <= hi for t in self._rto_times)

    # -- event handling ------------------------------------------------
    def _on_event(self, event) -> None:
        name = event.name
        if name == WORKLOAD_REQUEST_DONE:
            self._on_done(event.time, event.fields)
        elif name == MEMBERSHIP_EXCLUDE:
            self._open_window(
                MECH_RECONFIG, event.time, self.config.reconfig_window
            )
        elif name == MEMBERSHIP_JOINED:
            self._open_window(
                MECH_WARMUP, event.time, self.config.warmup_window
            )
        elif name == TCP_RETRANSMIT:
            self._rto_times.append(event.time)
            horizon = event.time - self.config.rto_horizon
            while self._rto_times and self._rto_times[0] < horizon:
                self._rto_times.popleft()
        elif name == ANNOTATION:
            if event.fields.get("label") == "operator-reset":
                self._open_window(
                    MECH_RESET, event.time, self.config.reset_window
                )

    def _on_done(self, now: float, fields: dict) -> None:
        self.requests += 1
        outcome = fields["outcome"]
        issued = now - fields["latency"]
        if outcome == "reject":
            # The reject *is* the fail-fast error return.
            self.lost[MECH_FAIL_FAST] += 1
        elif outcome == "timeout":
            self.lost[self._classify(issued, now, self._TIMEOUT_ORDER)] += 1
        elif fields["latency"] > self.config.slo_latency:
            self.slow[self._classify(issued, now, self._SLOW_ORDER)] += 1

    _TIMEOUT_ORDER = (MECH_RESET, MECH_RECONFIG, MECH_RETRANSMIT, MECH_WARMUP)
    _SLOW_ORDER = (MECH_WARMUP, MECH_RESET, MECH_RECONFIG, MECH_RETRANSMIT)

    def _classify(self, lo: float, hi: float, order) -> str:
        for mech in order:
            if mech == MECH_RETRANSMIT:
                if self._rto_in(lo, hi):
                    return mech
            elif self._overlaps(mech, lo, hi):
                return mech
        return MECH_UNATTRIBUTED

    # -- results -------------------------------------------------------
    @property
    def total_lost(self) -> int:
        return sum(self.lost.values())

    @property
    def total_slow(self) -> int:
        return sum(self.slow.values())

    def summary(self) -> dict:
        """The per-mechanism availability-cost table for this run.

        ``lost_fraction`` is the share of *all* requests the mechanism
        cost the service — the per-mechanism slice of (1 - availability).
        """
        n = self.requests
        table = {}
        for mech in MECHANISMS:
            lost, slow = self.lost[mech], self.slow[mech]
            table[mech] = {
                "lost": lost,
                "slow": slow,
                "charged": lost + slow,
                "lost_fraction": (lost / n) if n else 0.0,
            }
        return {
            "requests": n,
            "total_lost": self.total_lost,
            "total_slow": self.total_slow,
            "unavailability": (self.total_lost / n) if n else 0.0,
            "mechanisms": table,
            "config": self.config.to_dict(),
        }

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        return {
            "requests": self.requests,
            "lost": dict(self.lost),
            "slow": dict(self.slow),
            "windows": {m: list(w) for m, w in sorted(self._windows.items())},
            "rto_times": list(self._rto_times),
            "config": self.config.to_dict(),
        }
