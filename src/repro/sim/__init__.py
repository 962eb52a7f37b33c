"""Discrete-event simulation substrate.

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Timer` — the core loop.
* :class:`Process`, :func:`spawn`, :func:`all_of`, :func:`any_of` —
  generator coroutines.
* :class:`Resource` — the contention primitive.
* :class:`RngRegistry` — deterministic named random streams.
* :class:`ThroughputMonitor`, :class:`Annotations`, :class:`Timeline` —
  measurement instruments.
"""

from .engine import Engine, Event, SimulationError, StopSimulation, Timer
from .monitor import Annotation, Annotations, ThroughputMonitor, Timeline
from .process import Interrupted, Process, all_of, any_of, spawn
from .resources import Resource, ResourceClosed
from .rng import RngRegistry, derive_seed

__all__ = [
    "Engine",
    "Event",
    "Timer",
    "SimulationError",
    "StopSimulation",
    "Process",
    "Interrupted",
    "spawn",
    "all_of",
    "any_of",
    "Resource",
    "ResourceClosed",
    "RngRegistry",
    "derive_seed",
    "ThroughputMonitor",
    "Annotations",
    "Annotation",
    "Timeline",
]
