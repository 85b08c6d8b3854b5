"""Discrete-event simulation kernel.

This package provides the substrate on which the simulated GPU cluster,
training jobs, and the ByteRobust control plane execute.  It is a small,
deterministic, simpy-like kernel:

* :class:`~repro.sim.engine.Simulator` — the event loop and simulated
  clock.  Everything in the reproduction advances time exclusively
  through a ``Simulator`` so runs are reproducible bit-for-bit.
* :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (agents, jobs, inspection loops) that ``yield`` timeouts or
  events.
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded
  random streams so adding randomness to one subsystem never perturbs
  another.
"""

from repro.sim.engine import (
    EventHandle,
    PeriodicTask,
    Simulator,
    TickGroup,
    TickMember,
)
from repro.sim.events import Event, Timeout
from repro.sim.process import Process, ProcessExit
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "EventHandle",
    "PeriodicTask",
    "Process",
    "ProcessExit",
    "RngStreams",
    "Simulator",
    "TickGroup",
    "TickMember",
    "Timeout",
]
