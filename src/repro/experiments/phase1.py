"""Phase-1 experiment driver: one fault, one version, one timeline.

Lays out a run exactly like the paper's fault-injection experiments:
warm-up, steady measurement of Tn, fault injection, observation through
recovery, and — when the service cannot restore itself (splintered
partitions, stranded rejoins) — a simulated operator reset with a
post-reset observation tail.

Every cell is structured as a **warm segment** plus a **continuation**.
The warm segment (:func:`run_warm`) carries the simulation to
:func:`warm_point` — the injection instant — and is the part that is
identical across every fault of a (version, settings, seed) group: the
fault spec only enters the simulation *at* the injection instant, so the
pre-injection trajectory cannot depend on it.  The campaign warm-start
cache (:mod:`repro.experiments.warmstart`) exploits exactly this: it
snapshots the warm segment once and restores it per cell.  Cold runs
execute the same two segments back to back, which is behaviourally
identical to one straight run (the engine's clock and sequence counter
advance the same way), so warm-started and cold cells produce
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.extract import ExperimentRecord
from ..faults.spec import FaultKind, FaultSpec
from ..press.cluster import PressCluster
from ..press.config import ALL_VERSIONS, ALL_VERSIONS_EXTENDED, PressConfig
from ..sim import ids
from ..sim.monitor import Timeline
from .settings import (
    DEFAULT_SETTINGS,
    DEFAULT_TARGET,
    DURATION_FAULTS,
    Phase1Settings,
)


def build_cluster(config: PressConfig, settings: Phase1Settings) -> PressCluster:
    return PressCluster(
        config,
        n_nodes=settings.n_nodes,
        scale=settings.scale,
        seed=settings.seed,
        utilization=settings.utilization,
        restart_delay=settings.restart_delay,
        reboot_time=settings.reboot_time,
        fastpath=settings.fastpath,
    )


def _collect_timeline(
    cluster: PressCluster, version: str, fault: str, end: float
) -> Timeline:
    """Snapshot the monitor into a Timeline in paper units."""
    factor = cluster.scale.report_factor
    series = [
        (t, rate * factor) for t, rate in cluster.monitor.series(0.0, end)
    ]
    failures = [
        (t, rate * factor)
        for t, rate in cluster.monitor.failure_series(0.0, end)
    ]
    return Timeline(
        version=version,
        fault=fault,
        bucket_width=cluster.monitor.bucket_width,
        series=series,
        failures=failures,
        annotations=list(cluster.annotations.entries),
        availability=cluster.monitor.availability(),
    )


def warm_point(settings: Phase1Settings) -> float:
    """Sim-time up to which every cell of a settings group is identical.

    This is the injection instant: a fault spec enters the simulation at
    ``fault_at`` and the baseline never injects at all, so the trajectory
    up to (and including every event strictly before) this time is a pure
    function of (version, settings, seed).
    """
    return settings.fault_at


def run_warm(
    config: PressConfig,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    recorder=None,
    spans=None,
) -> PressCluster:
    """Build, start, and run a cluster to :func:`warm_point`.

    The returned cluster (with ``recorder`` attached to its bus, when
    given) is the shared prefix of every phase-1 cell: baseline and fault
    continuations both pick up from exactly here.  ``spans`` (a
    :class:`~repro.obs.spans.SpanCollector`) attaches before the first
    event, so every request the run ever issues is trace-complete.

    Global id counters rewind first, so the request/message/span ids a
    run draws — and embeds in exported traces — depend on the run alone,
    not on how many runs this process executed before it.
    """
    ids.reset_global_ids()
    cluster = build_cluster(config, settings)
    if recorder is not None:
        recorder.attach(cluster.bus)
    if spans is not None:
        spans.attach(cluster.bus)
    cluster.start()
    cluster.run_until(warm_point(settings))
    return cluster


def _warm_segment(
    config: PressConfig,
    settings: Phase1Settings,
    recorder,
    warm_cluster: Optional[PressCluster],
    spans,
) -> PressCluster:
    """``warm_cluster`` when given, else a fresh :func:`run_warm`; the
    argument rules are :func:`run_baseline`'s."""
    if warm_cluster is None:
        return run_warm(config, settings, recorder, spans)
    if recorder is not None:
        raise ValueError("warm_cluster already carries its recorder")
    if spans is not None:
        raise ValueError("span collection requires a cold run")
    return warm_cluster


def run_baseline(
    config: PressConfig,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    recorder=None,
    warm_cluster: Optional[PressCluster] = None,
    spans=None,
) -> Tuple[float, PressCluster]:
    """Fault-free run; returns (Tn in paper units, cluster).

    ``recorder`` (an :class:`~repro.obs.bus.EventRecorder` or any object
    with ``attach(bus)``) is subscribed to the cluster's event bus before
    the run starts.  ``warm_cluster`` continues a prepared warm segment
    (typically restored from a checkpoint) instead of simulating one; its
    recorder was attached before the warm segment ran, so the two
    arguments are mutually exclusive.  ``spans`` requires a cold run: a
    checkpoint restored mid-stream has no spans for its in-flight
    requests, which would violate the trace-completeness invariant.
    """
    cluster = _warm_segment(config, settings, recorder, warm_cluster, spans)
    end = settings.warm + settings.fault_at
    cluster.run_until(end)
    tn = cluster.measured_rate(settings.warm, end)
    return tn, cluster


def run_single_fault(
    config: PressConfig,
    kind: FaultKind,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    target: Optional[str] = DEFAULT_TARGET,
    normal_throughput: Optional[float] = None,
    recorder=None,
    warm_cluster: Optional[PressCluster] = None,
    spans=None,
) -> Tuple[ExperimentRecord, PressCluster]:
    """Inject ``kind`` into a running cluster and record the response.

    The fault is scheduled only once the warm segment has reached the
    injection instant, so the pre-injection simulation is byte-identical
    whether the warm segment was simulated here (cold) or restored from a
    checkpoint (``warm_cluster``).  ``spans`` requires a cold run (see
    :func:`run_baseline`).
    """
    cluster = _warm_segment(config, settings, recorder, warm_cluster, spans)

    duration = settings.fault_duration if kind in DURATION_FAULTS else 0.0
    spec = FaultSpec(
        kind=kind,
        target=None if kind is FaultKind.SWITCH_DOWN else target,
        at=settings.fault_at,
        duration=duration,
    )
    cluster.mendosus.schedule(spec)

    # Expected end of the fault's active period (node crashes clear at
    # reboot; faults that kill the process recover via the restart
    # daemon — give it time before judging the cluster partitioned).
    if kind is FaultKind.NODE_CRASH:
        active = cluster.nodes[target].reboot_time + settings.restart_delay
    elif kind in (
        FaultKind.APP_CRASH,
        FaultKind.BAD_PARAM_NULL,
        FaultKind.BAD_PARAM_OFFSET,
        FaultKind.BAD_PARAM_SIZE,
    ):
        active = max(duration, settings.restart_delay)
    else:
        active = duration
    observe_until = settings.fault_at + active + settings.post_recovery
    cluster.run_until(observe_until)

    reset_at: Optional[float] = None
    if cluster.is_partitioned():
        reset_at = cluster.engine.now
        cluster.operator_reset()
        cluster.run_until(observe_until + settings.tail)
    end = cluster.engine.now

    tn = (
        normal_throughput
        if normal_throughput is not None
        else cluster.measured_rate(settings.warm, settings.fault_at)
    )
    timeline = _collect_timeline(cluster, config.name, kind.value, end)

    ann = cluster.annotations
    injected_at = _first_after(ann, "fault-injected", 0.0) or settings.fault_at
    cleared = _first_after(ann, "fault-cleared", injected_at)
    restarts = [
        t for t in ann.times("process-restarted") if t > injected_at
    ]
    if reset_at is not None:
        restarts = [t for t in restarts if t < reset_at]
    cleared_at = max(
        [x for x in (cleared, *restarts) if x is not None],
        default=injected_at,
    )
    detection = _detection_time(ann, injected_at)
    rejoined = [
        t
        for t in ann.times("rejoined")
        if t > injected_at and (reset_at is None or t < reset_at)
    ]
    record = ExperimentRecord(
        version=config.name,
        fault=kind.value,
        timeline=timeline,
        normal_throughput=tn,
        injected_at=injected_at,
        cleared_at=cleared_at,
        end_time=end,
        reset_at=reset_at,
        # "Recovered" means the service restored itself *without* the
        # operator; a simulated reset re-merging the cluster afterwards
        # does not count.
        recovered_fully=reset_at is None and not cluster.is_partitioned(),
        detection_at=detection,
        rejoined_at=max(rejoined) if rejoined else None,
    )
    return record, cluster


def run_by_name(
    version: str,
    kind: FaultKind,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    target: Optional[str] = DEFAULT_TARGET,
) -> Tuple[ExperimentRecord, PressCluster]:
    return run_single_fault(ALL_VERSIONS_EXTENDED[version], kind, settings, target)


def _first_after(ann, label: str, after: float) -> Optional[float]:
    times = [t for t in ann.times(label) if t >= after]
    return min(times) if times else None


def _detection_time(ann, injected_at: float) -> Optional[float]:
    """Earliest sign the service noticed: reconfiguration or fail-fast."""
    candidates = [
        t
        for label in ("reconfigured", "fail-fast")
        for t in ann.times(label)
        if t >= injected_at
    ]
    return min(candidates) if candidates else None
