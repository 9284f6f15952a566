"""Memory module timing.

Each node's main memory serves accesses in ``setup + size/bandwidth``
cycles (Table 1: 20-cycle setup, 2 bytes per cycle).  Reads and writes
contend on separate ports: the memory controller buffers writes
(writebacks, write-throughs) and gives demand reads priority, so a read
never queues behind buffered write traffic — but reads contend with
reads and writes with writes, matching the paper's "memory access costs
(including memory contention)".
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.engine.resource import Resource


class MemoryModule:
    """One node's DRAM bank with a write-buffering controller."""

    __slots__ = (
        "config", "resource", "wresource", "reads", "writes",
        "_line", "_line_time",
    )

    def __init__(self, config: SystemConfig, node_id: int) -> None:
        self.config = config
        self.resource = Resource(f"mem_rd[{node_id}]")
        self.wresource = Resource(f"mem_wr[{node_id}]")
        self.reads = 0
        self.writes = 0
        # Nearly every access moves one line: its time is computed once.
        self._line = config.line_size
        self._line_time = config.memory_time(config.line_size)

    def read(self, t: int, size: int) -> int:
        """Begin a read at/after ``t``; return its completion time."""
        self.reads += 1
        if size == self._line:
            return self.resource.reserve(t, self._line_time)
        return self.resource.reserve(t, self.config.memory_time(size))

    def write(self, t: int, size: int) -> int:
        """Begin a write at/after ``t``; return its completion time."""
        self.writes += 1
        if size == self._line:
            return self.wresource.reserve(t, self._line_time)
        return self.wresource.reserve(t, self.config.memory_time(size))

    @property
    def busy_cycles(self) -> int:
        return self.resource.busy_cycles + self.wresource.busy_cycles
