"""Discrete-event simulation substrate.

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Timer` — the core loop.
* :class:`Resource` — the contention primitive.
* :class:`RngRegistry` — deterministic named random streams.
* :class:`ThroughputMonitor`, :class:`Annotations`, :class:`Timeline` —
  measurement instruments.
"""

from .engine import Engine, Event, SimulationError, StopSimulation, Timer
from .monitor import Annotation, Annotations, ThroughputMonitor, Timeline
from .resources import Resource
from .rng import RngRegistry, derive_seed

__all__ = [
    "Engine",
    "Event",
    "Timer",
    "SimulationError",
    "StopSimulation",
    "Resource",
    "RngRegistry",
    "derive_seed",
    "ThroughputMonitor",
    "Annotations",
    "Annotation",
    "Timeline",
]
