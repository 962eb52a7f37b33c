"""Online performability observation: stage detection + health SLOs.

The paper fits the seven-stage model *post hoc* from ground-truth
annotations the real testbed never had.  This module closes the loop the
way an operator watching a Mendosus dashboard would: it subscribes to
the event bus and classifies the run into stages A–G **live**, from
operator-observable signals only —

* ``sim.monitor.bucket`` — the throughput/availability stream,
* ``fault.injector.*`` — Mendosus is operator-driven, so injection and
  component-repair instants are known to the operator,
* ``press.membership.exclude`` — the service reconfigured (published at
  the same instant as the ground-truth "reconfigured" annotation),
* ``osim.process.exit``/``osim.process.restart`` — the restart daemon's
  view of fail-fast deaths and restarts,
* the "operator-reset" annotation — the operator's own action.

The :class:`StageDetector` publishes ``obs.stage.transition`` events as
it reclassifies; the :class:`HealthWatchdog` tracks rolling throughput
and availability against a :class:`SLOConfig` and publishes
``obs.health.degraded``/``obs.health.restored``.  Both are strictly
passive: they never schedule engine events, touch RNG streams, or
mutate component state (publishing from inside a subscriber is just a
nested synchronous call), so attaching an :class:`Observatory` cannot
change a run's results — guarded by the determinism tests.

How the boundaries line up with :func:`repro.core.extract.extract_profile`:

=========  =====================================  =========================
boundary   online signal                          ground-truth fit
=========  =====================================  =========================
A start    ``fault.injector.injected``            "fault-injected" mark
B start    first ``press.membership.exclude`` or  min("reconfigured",
           fail-fast ``osim.process.exit``        "fail-fast") mark
C start    B start + transient window             same formula
D start    last ``fault.injector.cleared`` /      max("fault-cleared",
           ``osim.process.restart``               "process-restarted")
D end      trailing window sustains the           ``recovery_transient_end``
           recovery threshold (plus rejoin
           warm-up), judged on closed buckets
E start    sub-normal plateau stabilises          hindsight (reset horizon)
F start    "operator-reset" mark                  same mark
G / end    F start + transient windows            same formula
=========  =====================================  =========================

Event-driven boundaries (detection, repair, reset) are therefore exact;
window-driven ones land within about one monitor bucket of the fit.
``repro.core.divergence`` quantifies the residual disagreement per run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from ..core.extract import DEFAULT_ENVIRONMENT, Environment
from .attribution import AttributionProbe, LatencyProbe
from .events import (
    ANNOTATION,
    FAULT_CLEARED,
    FAULT_INJECTED,
    MEMBERSHIP_EXCLUDE,
    MEMBERSHIP_JOINED,
    MONITOR_BUCKET,
    OBS_HEALTH_DEGRADED,
    OBS_HEALTH_RESTORED,
    OBS_STAGE_TRANSITION,
    PROCESS_EXIT,
    PROCESS_RESTART,
)

#: Stage labels the detector emits ("normal" plus the paper's A–G).
NORMAL = "normal"


@dataclass(frozen=True)
class StageTransition:
    """One online reclassification: the run entered ``stage`` at ``time``."""

    time: float  # the boundary's logical sim time
    stage: str
    prev: str
    trigger: str  # the signal that caused it (event name or window rule)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "stage": self.stage,
            "prev": self.prev,
            "trigger": self.trigger,
        }


class StageDetector:
    """Classifies a run into stages A–G live, from observable signals.

    Subscribe via :meth:`attach`; read :attr:`transitions` (or the
    ``obs.stage.transition`` events it publishes) as the run advances,
    and :meth:`summary`/:meth:`intervals` after :meth:`finalize`.
    """

    SUBSCRIBES = (
        MONITOR_BUCKET,
        FAULT_INJECTED,
        FAULT_CLEARED,
        MEMBERSHIP_EXCLUDE,
        MEMBERSHIP_JOINED,
        PROCESS_EXIT,
        PROCESS_RESTART,
        ANNOTATION,
    )

    def __init__(self, env: Environment = DEFAULT_ENVIRONMENT):
        self.env = env
        self.bus = None
        self.stage = NORMAL
        self.transitions: List[StageTransition] = []
        #: rolling normal-throughput estimate (monitor units), frozen at
        #: injection — the operator's notion of "what normal looks like"
        self.tn_estimate = 0.0
        self.injected_at: Optional[float] = None
        self.detected_at: Optional[float] = None
        self.repaired_at: Optional[float] = None
        self.reset_at: Optional[float] = None
        self.rejoined_at: Optional[float] = None
        self.impact_observed = False
        self.bucket_width = 1.0
        self._rates: Deque[Tuple[float, float]] = deque()
        self._g_start: Optional[float] = None
        self._end: Optional[float] = None

    # -- wiring --------------------------------------------------------
    def attach(self, bus) -> "StageDetector":
        self.bus = bus
        bus.subscribe(self._on_event, names=list(self.SUBSCRIBES))
        return self

    def _transition(self, time: float, stage: str, trigger: str) -> None:
        prev = self.stage
        self.stage = stage
        self.transitions.append(StageTransition(time, stage, prev, trigger))
        if self.bus is not None:
            self.bus.publish(
                OBS_STAGE_TRANSITION,
                stage=stage,
                prev=prev,
                at=time,
                trigger=trigger,
            )

    # -- event handling ------------------------------------------------
    def _on_event(self, event) -> None:
        self._advance(event.time)
        name = event.name
        if name == MONITOR_BUCKET:
            self._on_bucket(
                event.fields["start"],
                event.fields["ok"],
                event.fields.get("failed", 0),
                event.fields["width"],
            )
        elif name == FAULT_INJECTED:
            self._on_injected(event.time)
        elif name in (FAULT_CLEARED, PROCESS_RESTART):
            self._on_repair(event.time, name)
        elif name == MEMBERSHIP_EXCLUDE:
            self._on_detection(event.time, name)
        elif name == PROCESS_EXIT:
            # A fail-fast death is a detection signal in its own right; a
            # death of any kind *after* a supposed repair means the
            # component is down again (bad-param faults clear the instant
            # the interposer fires, before the fail-fast they provoke).
            if self.stage == "D" or str(
                event.fields.get("reason", "")
            ).startswith("fail-fast"):
                self._on_detection(event.time, name)
        elif name == MEMBERSHIP_JOINED:
            if self.stage in ("B", "C", "D"):
                self.rejoined_at = event.time
        elif name == ANNOTATION:
            if event.fields.get("label") == "operator-reset":
                self._on_reset(event.time)

    def _advance(self, now: float) -> None:
        """Emit window-driven boundaries whose logical time has passed."""
        W = self.env.transient_window
        if self.stage == "B" and now >= self.transitions[-1].time + W:
            self._transition(
                self.transitions[-1].time + W, "C", "transient-window"
            )
        if self.stage == "F" and now >= self.reset_at + W:
            self._g_start = self.reset_at + W
            self._transition(self._g_start, "G", "transient-window")
        if self.stage == "G" and now >= self._g_start + W:
            self._transition(self._g_start + W, NORMAL, "transient-window")

    def _on_injected(self, time: float) -> None:
        # A later fault (sequential validation roster) restarts the
        # classification; the rolling estimate freezes as "Tn".
        self.injected_at = time
        self.detected_at = None
        self.repaired_at = None
        self.reset_at = None
        self.rejoined_at = None
        self.impact_observed = False
        self._transition(time, "A", FAULT_INJECTED)

    def _on_detection(self, time: float, trigger: str) -> None:
        if self.stage == "A":
            self.detected_at = time
            self._transition(time, "B", trigger)
        elif self.stage == "D" and time > self.repaired_at:
            # The service reconfigured (or a process died) *after* the
            # supposed repair: the degradation continues — back to B
            # until the next repair signal.
            if self.detected_at is None:
                self.detected_at = time
            self._transition(time, "B", trigger)

    def _on_repair(self, time: float, trigger: str) -> None:
        if self.injected_at is None or time <= self.injected_at:
            return
        if self.stage in ("A", "B", "C"):
            self.repaired_at = time
            self._rates.clear()  # recovery is judged on post-repair buckets
            self._transition(time, "D", trigger)
        elif self.stage == "D" and time > self.repaired_at:
            # A later repair signal (e.g. the process restart that
            # follows a reboot) restarts the post-recovery transient.
            self.repaired_at = time
            self._rates.clear()
            self._transition(time, "D", trigger)

    def _on_reset(self, time: float) -> None:
        if self.stage in ("A", "B", "C", "D", "E"):
            self.reset_at = time
            self._transition(time, "F", "operator-reset")

    # -- the throughput stream -----------------------------------------
    def _on_bucket(
        self, start: float, ok: float, failed: float, width: float
    ) -> None:
        self.bucket_width = width
        end = start + width
        rate = ok / width
        self._rates.append((start, rate))
        keep_from = end - max(self.env.steady_window, self.env.transient_window)
        while self._rates and self._rates[0][0] < keep_from:
            self._rates.popleft()

        if self.stage == NORMAL:
            if self._rates:
                self.tn_estimate = sum(r for _, r in self._rates) / len(
                    self._rates
                )
            return
        tn = self.tn_estimate
        if tn <= 0:
            return
        if rate < (1.0 - self.env.impact_threshold) * tn:
            self.impact_observed = True
        if self.stage in ("D", "E"):
            self._judge_recovery(end, width, tn)

    def _window_mean(self, lo: float, hi: float) -> Optional[float]:
        """Mean rate over [lo, hi) if every bucket is present, else None."""
        picked = [r for t, r in self._rates if lo <= t < hi]
        need = round((hi - lo) / self.bucket_width)
        if need <= 0 or len(picked) < need:
            return None
        return sum(picked) / len(picked)

    def _judge_recovery(self, end: float, width: float, tn: float) -> None:
        W = self.env.transient_window
        recent = self._window_mean(end - W, end)
        if (
            recent is not None
            and recent >= self.env.recovery_threshold * tn
            and end - W >= self.repaired_at - width
            and (self.rejoined_at is None or end >= self.rejoined_at + W)
        ):
            # Also escapes a previously-declared sub-normal plateau (E):
            # the operator re-ups the run once the SLO-grade level holds.
            self._transition(end, NORMAL, "sustained-recovery")
            return
        # Stable sub-normal plateau -> stage E.  A ramp (halves of the
        # steady window disagree) keeps the run in D: slow recoveries
        # such as TCP's retransmission-backoff lag are still transients.
        if self.stage != "D":
            return
        S = self.env.steady_window
        if end - S < self.repaired_at:
            return
        first = self._window_mean(end - S, end - S / 2)
        second = self._window_mean(end - S / 2, end)
        if first is None or second is None:
            return
        mean = (first + second) / 2
        if (
            mean < self.env.recovery_threshold * tn
            and abs(first - second) <= self.env.impact_threshold * tn
        ):
            self._transition(end, "E", "stable-subnormal")

    # -- results -------------------------------------------------------
    def finalize(self, end: float) -> None:
        """Flush pending window boundaries and close the run at ``end``."""
        self._advance(end)
        self._end = end

    def intervals(self, end: Optional[float] = None) -> List[list]:
        """``[stage, start, end]`` spans covering the observed run."""
        if end is None:
            end = self._end
        if end is None:
            end = self.transitions[-1].time if self.transitions else 0.0
        out: List[list] = []
        current, since = NORMAL, 0.0
        for tr in self.transitions:
            if tr.stage == current:
                continue  # a re-triggered stage extends its interval
            if tr.time > since:
                out.append([current, since, min(tr.time, end)])
            current, since = tr.stage, tr.time
        if end > since:
            out.append([current, since, end])
        return out

    def summary(self) -> dict:
        """JSON-ready digest for per-cell telemetry and the dashboard."""
        return {
            "transitions": [t.to_dict() for t in self.transitions],
            "intervals": self.intervals(),
            "final_stage": self.stage,
            "tn_estimate": self.tn_estimate,
            "injected_at": self.injected_at,
            "detected_at": self.detected_at,
            "repaired_at": self.repaired_at,
            "reset_at": self.reset_at,
            "rejoined_at": self.rejoined_at,
            "impact_observed": self.impact_observed,
        }

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable).

        Covers everything the classifier carries across a checkpoint
        boundary — including the rolling rate window, which keeps
        accumulating through the SLO calibration phase, so a warm
        boundary landing mid-calibration still digests identically to
        the cold run at the same instant.
        """
        return {
            "stage": self.stage,
            "transitions": [t.to_dict() for t in self.transitions],
            "tn_estimate": self.tn_estimate,
            "injected_at": self.injected_at,
            "detected_at": self.detected_at,
            "repaired_at": self.repaired_at,
            "reset_at": self.reset_at,
            "rejoined_at": self.rejoined_at,
            "impact_observed": self.impact_observed,
            "bucket_width": self.bucket_width,
            "rates": list(self._rates),
            "g_start": self._g_start,
            "end": self._end,
        }


@dataclass(frozen=True)
class SLOConfig:
    """What "healthy" means for the watchdog."""

    #: rolling throughput must stay above this fraction of calibrated Tn
    throughput_floor: float = 0.8
    #: rolling success fraction must stay above this
    availability_floor: float = 0.95
    #: rolling evaluation window (seconds)
    window: float = 10.0
    #: how much leading traffic calibrates the Tn reference (seconds)
    calibration: float = 20.0

    def to_dict(self) -> dict:
        return {
            "throughput_floor": self.throughput_floor,
            "availability_floor": self.availability_floor,
            "window": self.window,
            "calibration": self.calibration,
        }


DEFAULT_SLO = SLOConfig()


class HealthWatchdog:
    """Tracks rolling throughput/availability against an SLO.

    Consumes only the ``sim.monitor.bucket`` stream; publishes
    ``obs.health.degraded`` when the SLO is first violated and
    ``obs.health.restored`` when it holds again, and accumulates
    time-in-violation episodes for the run summary.
    """

    def __init__(self, slo: SLOConfig = DEFAULT_SLO):
        self.slo = slo
        self.bus = None
        self.tn: Optional[float] = None  # calibrated reference throughput
        self.episodes: List[dict] = []
        self._window: Deque[Tuple[float, float, float]] = deque()
        self._calibrating: List[Tuple[float, float]] = []
        self._violating_since: Optional[float] = None
        self._violation_reason = ""
        self.min_throughput: Optional[float] = None
        self.min_availability: Optional[float] = None

    def attach(self, bus) -> "HealthWatchdog":
        self.bus = bus
        bus.subscribe(self._on_event, names=[MONITOR_BUCKET])
        return self

    def _on_event(self, event) -> None:
        f = event.fields
        self._on_bucket(f["start"], f["ok"], f.get("failed", 0), f["width"])

    def _on_bucket(
        self, start: float, ok: float, failed: float, width: float
    ) -> None:
        end = start + width
        if self.tn is None:
            self._calibrating.append((ok / width, width))
            if sum(w for _, w in self._calibrating) >= self.slo.calibration:
                total = sum(w for _, w in self._calibrating)
                self.tn = sum(r * w for r, w in self._calibrating) / total
                self._calibrating = []
            return
        self._window.append((start, ok, failed))
        while self._window and self._window[0][0] < end - self.slo.window:
            self._window.popleft()
        span = sum(1 for _ in self._window) * width
        ok_total = sum(o for _, o, _ in self._window)
        failed_total = sum(x for _, _, x in self._window)
        throughput = ok_total / span if span > 0 else 0.0
        attempts = ok_total + failed_total
        availability = ok_total / attempts if attempts > 0 else 0.0
        if self.min_throughput is None or throughput < self.min_throughput:
            self.min_throughput = throughput
        if self.min_availability is None or availability < self.min_availability:
            self.min_availability = availability

        reasons = []
        if throughput < self.slo.throughput_floor * self.tn:
            reasons.append("throughput")
        if availability < self.slo.availability_floor:
            reasons.append("availability")
        if reasons and self._violating_since is None:
            self._violating_since = end
            self._violation_reason = "+".join(reasons)
            if self.bus is not None:
                self.bus.publish(
                    OBS_HEALTH_DEGRADED,
                    reason=self._violation_reason,
                    throughput=throughput,
                    availability=availability,
                    floor=self.slo.throughput_floor * self.tn,
                )
        elif not reasons and self._violating_since is not None:
            self._close_episode(end, open=False)
            if self.bus is not None:
                self.bus.publish(
                    OBS_HEALTH_RESTORED,
                    violated_for=self.episodes[-1]["duration"],
                )

    def _close_episode(self, end: float, open: bool) -> None:
        since = self._violating_since
        self.episodes.append(
            {
                "start": since,
                "end": end,
                "duration": end - since,
                "reason": self._violation_reason,
                "open": open,
            }
        )
        self._violating_since = None
        self._violation_reason = ""

    def finalize(self, end: float) -> None:
        if self._violating_since is not None:
            self._close_episode(end, open=True)

    @property
    def time_in_violation(self) -> float:
        return sum(e["duration"] for e in self.episodes)

    def summary(self) -> dict:
        return {
            "slo": self.slo.to_dict(),
            "tn_reference": self.tn,
            "episodes": list(self.episodes),
            "violations": len(self.episodes),
            "time_in_violation": self.time_in_violation,
            "min_throughput": self.min_throughput,
            "min_availability": self.min_availability,
        }

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable).

        ``_calibrating`` is the part that matters for warm-start
        correctness: a checkpoint taken before the 20s SLO calibration
        has elapsed must carry the partial calibration buckets, or the
        restored watchdog would re-derive a different Tn reference than
        the cold run.
        """
        return {
            "slo": self.slo.to_dict(),
            "tn": self.tn,
            "episodes": list(self.episodes),
            "window": list(self._window),
            "calibrating": list(self._calibrating),
            "violating_since": self._violating_since,
            "violation_reason": self._violation_reason,
            "min_throughput": self.min_throughput,
            "min_availability": self.min_availability,
        }


class Observatory:
    """The full observation harness one campaign cell attaches to a run.

    Bundles an optional raw :class:`~repro.obs.bus.EventRecorder` (for
    trace export + event counts), a :class:`StageDetector`, a
    :class:`HealthWatchdog`, and the always-on latency/attribution
    probes (:mod:`repro.obs.attribution`) behind the single
    ``attach(bus)`` hook the phase-1 drivers accept as ``recorder=``.
    """

    def __init__(self, recorder=None, env: Environment = DEFAULT_ENVIRONMENT):
        self.recorder = recorder
        self.detector = StageDetector(env=env)
        self.watchdog = HealthWatchdog()
        self.latency = LatencyProbe(detector=self.detector)
        self.attribution = AttributionProbe()
        self.bus = None

    def attach(self, bus) -> "Observatory":
        if self.recorder is not None:
            self.recorder.attach(bus)
        self.detector.attach(bus)
        self.watchdog.attach(bus)
        self.latency.attach(bus)
        self.attribution.attach(bus)
        self.bus = bus
        return self

    def finish(self, cluster=None, end: Optional[float] = None) -> None:
        """Flush trailing monitor buckets, then close both observers."""
        if cluster is not None:
            if end is None:
                end = cluster.engine.now
            cluster.monitor.flush(end)
        if end is None and self.bus is not None:
            end = self.bus.engine.now
        self.detector.finalize(end if end is not None else 0.0)
        self.watchdog.finalize(end if end is not None else 0.0)

    def summary(self) -> dict:
        return {
            "stages": self.detector.summary(),
            "health": self.watchdog.summary(),
            "latency": self.latency.summary(),
            "attribution": self.attribution.summary(),
        }

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see Snapshottable)."""
        return {
            "detector": self.detector.snapshot_state(),
            "watchdog": self.watchdog.snapshot_state(),
            "latency": self.latency.snapshot_state(),
            "attribution": self.attribution.snapshot_state(),
        }
