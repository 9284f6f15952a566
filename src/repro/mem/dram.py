"""Memory module timing.

Each node's main memory serves accesses in ``setup + size/bandwidth``
cycles (Table 1: 20-cycle setup, 2 bytes per cycle).  Reads and writes
contend on separate ports: the memory controller buffers writes
(writebacks, write-throughs) and gives demand reads priority, so a read
never queues behind buffered write traffic — but reads contend with
reads and writes with writes, matching the paper's "memory access costs
(including memory contention)".

Each port is a busy-until :class:`~repro.engine.resource.Resource`;
the lazy protocols' hot handlers book ``rd.free_at`` / ``wr.free_at``
inline with the same rule :meth:`MemoryModule.read` and
:meth:`MemoryModule.write` apply.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.engine.resource import Resource


class MemoryModule:
    """One node's DRAM bank with a write-buffering controller."""

    __slots__ = ("config", "rd", "wr", "_line", "_line_time")

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.rd = Resource()
        self.wr = Resource()
        # Nearly every access moves one line: its time is computed once.
        self._line = config.line_size
        self._line_time = config.memory_time(config.line_size)

    def read(self, t: int, size: int) -> int:
        """Begin a read at/after ``t``; return its completion time."""
        if size == self._line:
            return self.rd.reserve(t, self._line_time)
        return self.rd.reserve(t, self.config.memory_time(size))

    def write(self, t: int, size: int) -> int:
        """Begin a write at/after ``t``; return its completion time."""
        if size == self._line:
            return self.wr.reserve(t, self._line_time)
        return self.wr.reserve(t, self.config.memory_time(size))
