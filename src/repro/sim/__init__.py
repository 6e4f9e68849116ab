"""Discrete-event simulation substrate.

The POD-Diagnosis paper measures wall-clock behaviour on AWS: API call
latencies, instance boot times, diagnosis durations.  This package provides
the virtual-time substrate that replaces the AWS testbed: a deterministic
discrete-event engine with one event kind — generator-based processes
``yield engine.timeout(...)`` — a virtual clock, and calibrated latency
models.

Public API:

- :class:`~repro.sim.engine.Engine` — the event loop.
- :class:`~repro.sim.engine.Process` — a running simulation process.
- :class:`~repro.sim.engine.Timeout` — the one thing a process yields.
- :class:`~repro.sim.latency.LatencyModel` and the calibrated instances in
  :mod:`repro.sim.latency`.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine, Process, Timeout
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
    aws_api_latency,
    instance_boot_latency,
)

__all__ = [
    "ConstantLatency",
    "Engine",
    "LatencyModel",
    "LogNormalLatency",
    "Process",
    "SimClock",
    "Timeout",
    "UniformLatency",
    "aws_api_latency",
    "instance_boot_latency",
]
