"""Observability: structured event tracing + metrics for simulation runs.

The paper's whole contribution is *measurement*, and this package is the
measurement substrate of the reproduction:

* :mod:`repro.obs.bus` — a structured, sim-time-stamped event bus hooked
  into the :class:`~repro.sim.engine.Engine`.  Any component can publish
  typed events (packet drop, retransmit, VIA descriptor error, cache
  hit/miss, membership change, fault inject/clear) with zero overhead
  when nothing is listening.
* :mod:`repro.obs.events` — the event taxonomy (names + field contracts).
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  keyed by ``layer.component.metric`` plus labels, which the net,
  transport, osim, and press layers register into (backing the public
  counter attributes they have always exposed).
* :mod:`repro.obs.exporters` — render a recorded run as JSONL or Chrome
  ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``), and
  summarize it into the compact per-cell telemetry dict the campaign
  result store persists.
* :mod:`repro.obs.observatory` — the *online* side: a passive
  :class:`~repro.obs.observatory.StageDetector` that classifies a run
  into the paper's stages A–G live from operator-observable signals, a
  :class:`~repro.obs.observatory.HealthWatchdog` that tracks rolling
  throughput/availability SLOs, and the
  :class:`~repro.obs.observatory.Observatory` bundle campaign cells
  attach to every run.

See ``OBSERVABILITY.md`` at the repo root for the taxonomy, the naming
convention, and how to open a trace in Perfetto.
"""

from .._lazy import lazy_exports

#: Every name resolves on first access (see :mod:`repro._lazy`), so the
#: engine's import of ``repro.obs.bus`` loads neither the exporters nor
#: the observatory and the stage model behind it.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bus": ("EventBus", "EventRecorder", "SimEvent"),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "bound_counter",
        ),
        "exporters": (
            "chrome_trace",
            "export_run",
            "read_events_jsonl",
            "telemetry_summary",
            "validate_chrome_trace",
            "validate_events_jsonl",
            "validate_trace_dir",
            "write_chrome_trace",
            "write_events_jsonl",
        ),
        "observatory": (
            "DEFAULT_SLO",
            "HealthWatchdog",
            "Observatory",
            "SLOConfig",
            "StageDetector",
            "StageTransition",
        ),
    },
)
