"""Reusable simulation kernel: clock, event queue and ready/wake loop.

This package is the hardware-agnostic core of the simulator. It knows
nothing about caches, buses or cores — only about *slots* (step
functions) kept in a ready set and stepped once per cycle while they
have work, *events* scheduled for future cycles, and a *clock* that
advances one cycle at a time while any slot is ready but jumps straight
to the next wake-up when the ready set drains. A component takes its
slots off the run list with :meth:`SimulationKernel.sleep`, called from
inside its own step, and they are roused by a cycle timer or an
explicit :meth:`SimulationKernel.wake`.

The ACMP machine (:mod:`repro.acmp`) builds on this kernel; campaign
drivers (:mod:`repro.campaign`) run many kernels in parallel processes.
"""

from repro.engine.clock import Clock
from repro.engine.events import EventQueue
from repro.engine.kernel import NEVER, KernelStats, SimulationKernel

__all__ = [
    "Clock",
    "EventQueue",
    "KernelStats",
    "NEVER",
    "SimulationKernel",
]
