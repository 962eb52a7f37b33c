"""The benchmark's workloads, result fingerprints and work counts.

Each workload calls only the entry points a campaign uses:

* ``campaign`` — :func:`repro.experiments.runner.run_campaign` over
  TCP-PRESS and VIA-PRESS-5 with a fault set covering link, switch, node
  and application faults, then the phase-2 model
  (:func:`repro.core.model.evaluate`) on the merged profiles;
* ``steady-tcp`` / ``steady-via`` — one fault-free, prewarmed
  :func:`repro.experiments.phase1.run_baseline` cell with the
  :class:`~repro.obs.observatory.Observatory` every campaign cell
  attaches.

:func:`execute` runs one workload and returns its measurements: the
host time of the simulation itself (from the first simulated event to
the last result), the simulated requests that reached a final outcome,
a fingerprint of the simulated results, and the public counters of the
simulated work.  Host-time quantities never enter a fingerprint, and
neither does the engine's event count, which fast paths may lower.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import time
from collections import Counter
from typing import Callable, Dict, Optional

from repro.core import model
from repro.core.faultload import FaultLoad
from repro.experiments import phase1, runner, warmstart
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import CellKey, MemoryStore, payload_fingerprint
from repro.faults.spec import FaultKind
from repro.obs.bus import EventRecorder
from repro.obs.observatory import Observatory
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED
from repro.sim.engine import Engine

WORKLOADS = ("campaign", "steady-tcp", "steady-via")

CAMPAIGN_VERSIONS = ("TCP-PRESS", "VIA-PRESS-5")
#: Link, switch, node and application faults (two of each but switch).
CAMPAIGN_FAULTS = (
    FaultKind.LINK_DOWN,
    FaultKind.SWITCH_DOWN,
    FaultKind.NODE_CRASH,
    FaultKind.NODE_FREEZE,
    FaultKind.APP_CRASH,
    FaultKind.APP_HANG,
    FaultKind.BAD_PARAM_NULL,
)
STEADY_VERSIONS = {"steady-tcp": "TCP-PRESS", "steady-via": "VIA-PRESS-5"}
#: Simulated seconds one steady cell covers (Tn is measured after ``warm``).
STEADY_HORIZON = 600.0


def campaign_settings(seed: int) -> Phase1Settings:
    """The benchmark fixtures' layout (``benchmarks/conftest.py``
    ``BENCH_SETTINGS``) at SMOKE scale, one replication."""
    return Phase1Settings(
        scale=SMOKE_SCALE,
        seed=seed,
        warm=15.0,
        fault_at=30.0,
        fault_duration=40.0,
        post_recovery=60.0,
        tail=40.0,
        replications=1,
    )


def steady_settings(seed: int) -> Phase1Settings:
    """Four nodes at utilization 0.9, SMOKE scale, one long baseline."""
    return Phase1Settings(
        scale=SMOKE_SCALE,
        seed=seed,
        utilization=0.9,
        n_nodes=4,
        warm=15.0,
        fault_at=STEADY_HORIZON - 15.0,
        replications=1,
    )


@dataclasses.dataclass
class Execution:
    """One workload execution, as measured from outside the program."""

    first_event_at: float  # time.monotonic() at the first simulated event
    wall_s: float  # host seconds from the first event to the last result
    peak_rss_mb: float
    requests: int  # simulated requests that reached ok, reject or timeout
    fingerprint: str
    counters: Dict[str, float]  # public counters summed over the run
    #: campaign provenance: cells executed / from cache, warm-start counts
    campaign: Optional[dict] = None


def _hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _counter_totals(metrics_summary: dict) -> Counter:
    """Registry counters summed over their labels."""
    totals: Counter = Counter()
    for rendered, value in metrics_summary.get("counters", {}).items():
        totals[rendered.split("{", 1)[0]] += value
    return totals


def _requests(counters) -> int:
    return int(
        counters.get("sim.monitor.requests_ok", 0)
        + counters.get("sim.monitor.requests_failed", 0)
    )


def _on_first_event(callback: Callable[[], None]) -> Callable[[], None]:
    """Call ``callback`` when the engine is first asked to run events.

    The hook replaces ``Engine.run`` once and puts back whatever was
    there before the first call goes through, so the measured run
    executes the program's own loop (or the tracer's wrapper of it).
    Returns a function that removes the hook if it never fired.
    """
    inner = Engine.__dict__["run"]

    def run(engine, *args, **kwargs):
        Engine.run = inner
        callback()
        return inner(engine, *args, **kwargs)

    def remove() -> None:
        if Engine.__dict__["run"] is run:
            Engine.run = inner

    Engine.run = run
    return remove


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _run_campaign(seed: int):
    settings = campaign_settings(seed)
    store = MemoryStore()
    sets, report = runner.run_campaign(
        settings,
        versions=list(CAMPAIGN_VERSIONS),
        faults=CAMPAIGN_FAULTS,
        jobs=1,
        store=store,
        warm_start=True,
    )
    load = FaultLoad.table3()
    evaluations = {}
    for version in CAMPAIGN_VERSIONS:
        profiles = sets[version]
        usable = FaultLoad(
            components=tuple(c for c in load if c.key in profiles)
        )
        evaluations[version] = model.evaluate(profiles, usable)
    return settings, store, report, evaluations


def _campaign_results(settings, store, report, evaluations):
    """Fingerprint and simulated-work counters of one campaign.

    Cells of a warm group restore one checkpoint, so every cell's
    counters include the shared warm segment.  It was simulated once;
    the counters subtract it from all but one cell of its group.
    """
    settings_key = settings.sim_key()
    cells = []
    counters: Counter = Counter()
    groups: Counter = Counter()
    for rec in report.cells:
        payload = store.get(
            CellKey(
                version=rec.version,
                settings_key=settings_key,
                fault=rec.fault,
                seed=rec.seed,
            )
        )
        if payload is None:
            raise RuntimeError(f"campaign cell {rec.version}/{rec.fault} missing")
        cells.append(
            [rec.version, rec.fault or "", rec.seed, payload_fingerprint(payload)]
        )
        counters.update(_counter_totals(payload["telemetry"].get("metrics", {})))
        groups[(rec.version, rec.seed)] += 1
    for (version, seed), n in sorted(groups.items()):
        cluster, _obs, _prov = warmstart.WarmStartCache(
            warmstart.WarmSpec(dir=None)
        ).obtain(version, dataclasses.replace(settings, seed=seed), False)
        warm = _counter_totals(cluster.metrics.summary())
        for name, value in warm.items():
            counters[name] -= (n - 1) * value
    evaluated = {
        v: [repr(r.availability), repr(r.average_throughput)]
        for v, r in sorted(evaluations.items())
    }
    fingerprint = _hash({"cells": sorted(cells), "evaluate": evaluated})
    return fingerprint, counters


def _run_steady(workload: str, seed: int):
    settings = steady_settings(seed)
    obs = Observatory(
        recorder=EventRecorder(keep_events=False), env=settings.environment
    )
    tn, cluster = phase1.run_baseline(
        ALL_VERSIONS_EXTENDED[STEADY_VERSIONS[workload]], settings, recorder=obs
    )
    obs.finish(cluster)
    return tn, cluster, obs


def _steady_results(tn, cluster, obs):
    end = cluster.engine.now
    outcomes = obs.summary()["latency"]["outcomes"]
    servers = {
        node_id: {
            "local_serves": server.local_serves,
            "remote_serves": server.remote_serves,
            "cache_hits": server.cache.hits,
            "cache_misses": server.cache.misses,
        }
        for node_id, server in sorted(cluster.servers.items())
    }
    fingerprint = _hash(
        {
            "tn": repr(tn),
            "ok": outcomes.get("ok", 0),
            "reject": outcomes.get("reject", 0),
            "timeout": outcomes.get("timeout", 0),
            "series": [[t, repr(r)] for t, r in cluster.monitor.series(0.0, end)],
            "failures": [
                [t, repr(r)] for t, r in cluster.monitor.failure_series(0.0, end)
            ],
            "servers": servers,
        }
    )
    return fingerprint, _counter_totals(cluster.metrics.summary())


def execute(workload: str, seed: int, tracer=None) -> Execution:
    """Run ``workload`` once in this process and measure it.

    With a :class:`~layer_tracer.LayerTracer` the tracer is installed for
    the run, its window opens at the first simulated event, and it is
    removed again before the results are read.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    started: Dict[str, float] = {}

    def first_event() -> None:
        started["monotonic"] = time.monotonic()
        started["wall"] = (
            tracer.activate() if tracer is not None else time.perf_counter()
        )

    # Checkpoints live in a per-process memory cache; start from none so
    # every execution simulates (and captures) its own warm segments.
    warmstart._memory_blobs.clear()
    if tracer is not None:
        tracer.install()
    remove_hook = _on_first_event(first_event)
    try:
        if workload == "campaign":
            result = _run_campaign(seed)
        else:
            result = _run_steady(workload, seed)
        wall_s = time.perf_counter() - started["wall"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        remove_hook()
        if tracer is not None:
            tracer.uninstall()
    campaign = None
    if workload == "campaign":
        fingerprint, counters = _campaign_results(*result)
        report = result[2]
        campaign = {
            "executed": report.executed,
            "cached": report.cached,
            "warm_start": dict(report.warm_start),
        }
    else:
        fingerprint, counters = _steady_results(*result)
    warmstart._memory_blobs.clear()
    return Execution(
        first_event_at=started["monotonic"],
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        requests=_requests(counters),
        fingerprint=fingerprint,
        counters=dict(counters),
        campaign=campaign,
    )


# ----------------------------------------------------------------------
# Per-layer breakdown of a traced execution
# ----------------------------------------------------------------------

#: The layers' self times must account for the traced wall time within
#: this share of it; the rest ran outside every wrapped entry point.
BREAKDOWN_TOLERANCE = 0.02


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, run: Execution) -> Dict[str, float]:
    """Per-layer metrics of one traced execution.

    Self times and the event / work-item / message / publish / injection
    counts come from the tracer; every other count is a public counter
    of the simulated run.
    """
    self_s = tracer.layer_self()
    c = run.counters
    events = tracer.counts["sim.events"]
    items = tracer.counts["osim.work_items"]
    messages = tracer.calls_matching(
        "TcpEndpoint.send", "ViaChannel.send", ".send_datagram"
    )
    frames = c.get("net.nic.frames_sent", 0)
    handled = c.get("press.server.requests_handled", 0)
    hits = c.get("press.cache.hits", 0)
    lookups = hits + c.get("press.cache.misses", 0)
    campaign = run.campaign or {}
    warm = campaign.get("warm_start", {})
    attributed = sum(self_s.values())
    return {
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.us_per_event": 1e6 * _ratio(self_s["sim"], events),
        "workload.requests": run.requests,
        "workload.failed": c.get("sim.monitor.requests_failed", 0),
        "workload.self_s": self_s["workload"],
        "workload.us_per_request": 1e6 * _ratio(self_s["workload"], run.requests),
        "net.frames": frames,
        "net.frames_lost": c.get("net.fabric.frames_lost", 0),
        "net.self_s": self_s["net"],
        "net.us_per_frame": 1e6 * _ratio(self_s["net"], frames),
        "osim.work_items": items,
        "osim.self_s": self_s["osim"],
        "osim.us_per_item": 1e6 * _ratio(self_s["osim"], items),
        "transports.messages": messages,
        "transports.tcp.retransmissions": c.get("transport.tcp.retransmissions", 0),
        "transports.self_s": self_s["transports"],
        "transports.us_per_message": 1e6 * _ratio(self_s["transports"], messages),
        "press.requests": handled,
        "press.forward_ratio": _ratio(
            c.get("press.server.requests_forwarded", 0), handled
        ),
        "press.cache_hit_ratio": _ratio(hits, lookups),
        "press.disk_reads": c.get("press.server.disk_reads", 0),
        "press.self_s": self_s["press"],
        "obs.publishes": tracer.calls_matching("EventBus.publish"),
        "obs.self_s": self_s["obs"],
        "core.self_s": self_s["core"],
        "experiments.cells": campaign.get("executed", 0),
        "experiments.self_s": self_s["experiments"],
        "experiments.warm_capture_s": tracer.inclusive_s.get(
            "repro.sim.snapshot.capture", 0.0
        ),
        "experiments.warm_restore_s": tracer.inclusive_s.get(
            "repro.sim.snapshot.restore", 0.0
        ),
        "experiments.warm_hit_ratio": _ratio(
            warm.get("hit", 0), sum(warm.values())
        ),
        "faults.injected": tracer.calls_matching("Mendosus.inject"),
        "faults.self_s": self_s["faults"],
        "trace.wall_s": run.wall_s,
        "trace.unattributed_share": 1.0 - _ratio(attributed, run.wall_s),
    }
