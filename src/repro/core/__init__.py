"""Machine assembly and the public simulation API."""

from repro.core.machine import Machine, MachineConfig, RunResult
from repro.core.api import simulate

__all__ = [
    "Machine",
    "MachineConfig",
    "RunResult",
    "simulate",
]
