"""Discrete-event simulation engine (substrate S1).

The engine is deliberately generic: it knows nothing about jobs, nodes
or schedulers.  Higher layers (:mod:`repro.slurm`) register handlers for
event kinds and drive the simulation through :class:`Simulator`.
"""

from repro.engine.events import Event, EventKind
from repro.engine.heap import EventHeap
from repro.engine.rng import RngStreams
from repro.engine.simulator import Simulator

__all__ = [
    "Event",
    "EventKind",
    "EventHeap",
    "RngStreams",
    "Simulator",
]
