"""Deterministic discrete-event simulation core.

Everything in this reproduction — kernels, CPUs, networks, audio hardware —
runs on virtual time provided by :class:`~repro.sim.core.Simulator`.
Processes are Python generators that yield *waitables* (sleeps, queue gets,
signal waits, CPU work) back to the scheduler.
"""

from repro.sim.core import Simulator, SimError, Event
from repro.sim.process import (
    Process,
    ProcessKilled,
    Sleep,
    Timeout,
    WaitProcess,
    current_process,
)
from repro.sim.resources import Queue, QueueClosed, Signal
from repro.sim.cpu import CPU, CpuStats

__all__ = [
    "Simulator",
    "SimError",
    "Event",
    "Process",
    "ProcessKilled",
    "Sleep",
    "Timeout",
    "WaitProcess",
    "current_process",
    "Queue",
    "QueueClosed",
    "Signal",
    "CPU",
    "CpuStats",
]
