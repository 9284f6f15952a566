"""Application framework.

An :class:`App` is constructed against an :class:`AppContext` — a
lightweight ``(SystemConfig, AddressSpace)`` pair — and then produces one
reference-stream generator per processor via :meth:`App.program`.  App
construction involves no live machine: the context is all an app needs
to allocate its shared data and emit its streams, which is what lets the
record/replay engine (:mod:`repro.program.stream`,
:mod:`repro.engine.replay`) execute an app's Python exactly once per
workload and replay the recorded stream across a whole
protocol × config sweep.

Conventions used by all apps:

* synchronization name spaces: lock ids, flag ids, and barrier ids are
  independent (the runtime keys them separately), but each app keeps its
  own ids disjoint per kind anyway, allocated via the ``lock_id`` /
  ``flag_id`` / ``barrier_id`` helpers;
* ``COMPUTE`` gaps model the arithmetic between memory references (one
  cycle per reference is charged implicitly by the CPU model);
* every app ends with a global barrier so all processors finish together
  (as the SPLASH programs do).
"""

from __future__ import annotations

from typing import Dict, Iterator, Type

import numpy as np

from repro.program.address_space import RecordingAddressSpace
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    READ,
    READ_RUN,
    RELEASE,
    RW_RUN,
    SET_FLAG,
    WAIT_FLAG,
    WRITE,
    WRITE_RUN,
)

APPS: Dict[str, Type] = {}


def register(cls: Type) -> Type:
    """Class decorator: add an app to the global registry."""
    APPS[cls.name] = cls
    return cls


class AppContext:
    """What an app builds against: a config plus an address space.

    The space is a :class:`RecordingAddressSpace`, so any app constructed
    from a context can be recorded into a
    :class:`~repro.program.stream.RecordedStream` (the stream carries the
    allocation log).
    """

    __slots__ = ("config", "space")

    def __init__(self, config) -> None:
        self.config = config
        self.space = RecordingAddressSpace(config)


class App:
    """Base class for workload generators."""

    name = "app"

    def __init__(self, ctx: AppContext, seed: int = 0, **params) -> None:
        if not isinstance(ctx, AppContext):
            raise TypeError(
                f"{type(self).__name__} is built against an AppContext, "
                f"not {type(ctx).__name__}"
            )
        self.ctx = ctx
        self.space = ctx.space
        self.cfg = ctx.config
        self.n_procs = ctx.config.n_procs
        self.rng = np.random.default_rng(ctx.config.seed + seed)
        self._next_lock = 0
        self._next_flag = 0
        self._next_barrier = 0
        self.setup(**params)

    # -- to be provided by subclasses ------------------------------------------

    def setup(self, **params) -> None:
        raise NotImplementedError

    def program(self, pid: int) -> Iterator:
        raise NotImplementedError

    # -- id allocators ------------------------------------------------------------

    def lock_id(self, n: int = 1) -> int:
        base = self._next_lock
        self._next_lock += n
        return base

    def flag_id(self, n: int = 1) -> int:
        base = self._next_flag
        self._next_flag += n
        return base

    def barrier_id(self) -> int:
        b = self._next_barrier
        self._next_barrier += 1
        return b

    # -- partitioning helpers --------------------------------------------------------

    def cyclic(self, total: int, pid: int) -> range:
        """Indices owned by ``pid`` under cyclic (round-robin) assignment."""
        return range(pid, total, self.n_procs)

    def blocked(self, total: int, pid: int) -> range:
        """Indices owned by ``pid`` under contiguous block assignment."""
        per = -(-total // self.n_procs)
        lo = min(pid * per, total)
        hi = min(lo + per, total)
        return range(lo, hi)

    def owner_cyclic(self, index: int) -> int:
        return index % self.n_procs
