"""System configuration for the simulated multiprocessor.

The defaults reproduce Table 1 of the paper:

=======================  =============================
Cache line size          128 bytes
Cache size               128 Kbytes direct-mapped
Memory setup time        20 cycles
Memory bandwidth         2 bytes/cycle
Bus bandwidth            2 bytes/cycle
Network bandwidth        2 bytes/cycle (bidirectional)
Switch node latency      2 cycles
Wire latency             1 cycle
Write notice processing  4 cycles
LRC directory access     25 cycles
ERC directory access     15 cycles
=======================  =============================

Three presets are provided:

* :meth:`SystemConfig.paper` — the exact Table 1 machine (64 processors,
  128 KB caches).
* :meth:`SystemConfig.scaled` — same relative geometry but with smaller
  caches, matching the paper's own methodology of shrinking caches along
  with the (simulation-constrained) input sizes so that capacity and
  conflict misses are still exercised.
* :meth:`SystemConfig.future` — the Section 4.3 "future machine": 40-cycle
  memory startup, 4 bytes/cycle bandwidth, 256-byte cache lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def _mesh_dims(n: int) -> tuple:
    """Closest-to-square factorization of ``n`` for the 2-D mesh."""
    best = (1, n)
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            best = (a, n // a)
    return best


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of the simulated machine.

    All times are in processor cycles, all sizes in bytes, all bandwidths
    in bytes/cycle.  Instances are hashable so they can key result caches
    in the experiment harness.
    """

    # -- topology -----------------------------------------------------------
    n_procs: int = 64

    # -- caches (Table 1) ----------------------------------------------------
    line_size: int = 128
    cache_size: int = 128 * 1024

    # -- memory (Table 1) ----------------------------------------------------
    mem_setup: int = 20
    mem_bw: float = 2.0

    # -- interconnect (Table 1) ----------------------------------------------
    bus_bw: float = 2.0
    net_bw: float = 2.0
    switch_latency: int = 2
    wire_latency: int = 1

    # -- protocol processor costs (Table 1) -----------------------------------
    notice_cost: int = 4       # processing one write notice at a sharer
    lrc_dir_cost: int = 25     # directory access, lazy protocols
    erc_dir_cost: int = 15     # directory access, eager / SC protocols
    tardis_lease: int = 10     # read-lease length (logical ts) for tardis

    # -- buffering (Section 3 / Section 2) ------------------------------------
    wb_entries: int = 4        # CPU write buffer (relaxed protocols)
    cbuf_entries: int = 16     # coalescing write-through buffer (lazy protocols)

    # -- layout ---------------------------------------------------------------
    page_size: int = 4096
    word_size: int = 8

    # -- simulation knobs (not architectural) ---------------------------------
    quantum: int = 200         # max cycles a CPU advances before rescheduling
    control_occupancy: int = 2  # NIC occupancy of a header-only message
    lock_mgr_cost: int = 4     # lock/barrier manager processing per message
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a power of two")
        if self.cache_size % self.line_size:
            raise ValueError("cache_size must be a multiple of line_size")
        if self.page_size % self.line_size:
            raise ValueError("page_size must be a multiple of line_size")
        if self.wb_entries < 1 or self.cbuf_entries < 1:
            raise ValueError("buffer sizes must be >= 1")
        if self.word_size != 8:
            # Every engine indexes words as ``(addr >> 3) & word_mask``.
            raise ValueError("word_size must be 8")

    # -- derived geometry -----------------------------------------------------

    @property
    def n_sets(self) -> int:
        """Number of lines in the (direct-mapped) cache."""
        return self.cache_size // self.line_size

    @property
    def line_shift(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def mesh_dims(self) -> tuple:
        return _mesh_dims(self.n_procs)

    @property
    def hop_latency(self) -> int:
        """Per-hop latency: one switch traversal plus one wire."""
        return self.switch_latency + self.wire_latency

    def hops(self, src: int, dst: int) -> int:
        """Dimension-order (Manhattan) hop count between two mesh nodes.

        The one definition of mesh distance.  The fabric's send path reads
        the same count from a per-source table
        (:func:`repro.network.fabric.hop_table`), built once per mesh.
        """
        if src == dst:
            return 0
        w, _h = self.mesh_dims
        sx, sy = src % w, src // w
        dx, dy = dst % w, dst // w
        return abs(sx - dx) + abs(sy - dy)

    # -- canonical latency components (used by fabric / memory / protocols) ---

    def transit(self, src: int, dst: int, size: int) -> int:
        """Network transit time for a message of ``size`` payload bytes.

        Header-only (control) messages cost ``hop_latency * hops``; data
        messages add the serialization time of the payload.  This matches
        the worked example in Section 3 of the paper: a 10-hop request is
        (2+1)*10 = 30 cycles, and the 128-byte data reply is
        (2+1)*10 + 128/2 = 94 cycles.
        """
        t = self.hop_latency * self.hops(src, dst)
        if size:
            t += int(math.ceil(size / self.net_bw))
        return t

    def nic_occupancy(self, size: int) -> int:
        """Cycles a message occupies a network interface endpoint."""
        if size:
            return int(math.ceil(size / self.net_bw))
        return self.control_occupancy

    def memory_time(self, size: int) -> int:
        """DRAM access time: setup plus transfer."""
        return self.mem_setup + int(math.ceil(size / self.mem_bw))

    def bus_time(self, size: int) -> int:
        """Local bus transfer time (e.g. filling a line into the cache)."""
        return int(math.ceil(size / self.bus_bw))

    def line_fill_cost(self, src: int, dst: int) -> int:
        """Uncontended end-to-end cost of a remote cache fill (Section 3).

        request transit + memory access + data reply transit + local bus
        fill.  With the Table 1 parameters and 10 hops this is exactly
        30 + 84 + 94 + 64 = 272 cycles.
        """
        return (
            self.transit(src, dst, 0)
            + self.memory_time(self.line_size)
            + self.transit(dst, src, self.line_size)
            + self.bus_time(self.line_size)
        )

    # -- presets ---------------------------------------------------------------

    @classmethod
    def paper(cls, **over) -> "SystemConfig":
        """The exact Table 1 machine (64 processors, 128 KB caches)."""
        return cls(**over)

    @classmethod
    def scaled(cls, n_procs: int = 64, cache_size: int = 8 * 1024, **over) -> "SystemConfig":
        """Scaled-down machine for tractable pure-Python simulation.

        The paper shrank caches relative to real machines because its
        inputs were shrunk for simulation speed; we shrink both one more
        step for the same reason.  All Table 1 latency/bandwidth
        parameters are preserved.
        """
        return cls(n_procs=n_procs, cache_size=cache_size, **over)

    @classmethod
    def future(cls, n_procs: int = 64, cache_size: int = 8 * 1024, **over) -> "SystemConfig":
        """The Section 4.3 future machine.

        High latency (40-cycle memory startup), high bandwidth
        (4 bytes/cycle on memory, bus and network), long 256-byte lines.
        """
        over.setdefault("mem_setup", 40)
        over.setdefault("mem_bw", 4.0)
        over.setdefault("bus_bw", 4.0)
        over.setdefault("net_bw", 4.0)
        over.setdefault("line_size", 256)
        return cls(n_procs=n_procs, cache_size=cache_size, **over)
