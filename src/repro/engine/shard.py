"""Conservative time-windowed sharded PDES scheduler (DESIGN.md §14).

Partitions the mesh's nodes into ``K`` interleaved shards and runs each
shard's event loop independently inside a safe lookahead window, with
cross-shard arrivals exchanged at deterministic epoch barriers.  Results
are **bit-identical** to the serial :class:`~repro.engine.simulator.Simulator`.

Epoch structure::

    barrier:  drain the ShardBoundary into the shard queues
    window:   H1 = min_next + lookahead
              for each shard: pop-and-execute every event with t < H1
    repeat until all queues and the boundary are empty

Safety of the window (why no shard can miss a cross-shard arrival):
``lookahead`` is the minimum network latency between two distinct nodes
(``hop_latency`` — one hop, no payload).  Every event executed in a
window has time ``u >= min_next``, so any remote delivery it produces
has arrival ``>= u + lookahead >= H1``: at or beyond the *next* window.
Cross-shard sends queued at the boundary therefore never land in a
shard's past, and same-shard remote sends sit in the heap beyond the
horizon.  ``H1 > min_next`` also guarantees per-epoch progress.

Determinism (why execution order differences cannot be observed): code
executing "at node X" mutates only X-local state (cache, write buffer,
resources, per-proc stats), schedules only X-local events (local lane,
FIFO per queue) and remote arrivals carrying canonical
``(arrival, src, src_seq)`` keys, and bumps commutative machine-wide
counters.  Each node's event sequence is thus a pure function of the
simulated history, independent of the shard layout, and the aggregate
stats are sums of per-node streams.  The classifier defers to the same
canonical order (:meth:`~repro.stats.classification.MissClassifier.finalize`).
"""

from __future__ import annotations

from typing import Any, Callable, List

import os
import time

from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator
from repro.network.fabric import ShardBoundary

#: Environment variable selecting how shards execute when ``shards > 1``
#: (transient, like ``REPRO_ENGINE`` — never part of a spec fingerprint):
#: ``inproc`` (default) runs the windowed loop in one process;
#: ``process`` forks one worker per shard (:mod:`repro.engine.shard_proc`).
ENV_SHARD_BACKEND = "REPRO_SHARD_BACKEND"

SHARD_BACKENDS = ("inproc", "process")


def resolve_shard_backend(backend: "str | None" = None) -> str:
    """Explicit argument, else ``REPRO_SHARD_BACKEND``, else ``inproc``."""
    b = backend or os.environ.get(ENV_SHARD_BACKEND, "") or "inproc"
    if b not in SHARD_BACKENDS:
        raise ValueError(
            f"unknown shard backend {b!r} (choose from {SHARD_BACKENDS})"
        )
    return b


def shard_map(n_procs: int, shards: int) -> List[int]:
    """Round-robin balanced partition: node ``i`` -> shard ``i % K``.

    Bit-identity holds for *any* partition (the window proof and the
    canonical tie-break never mention the layout), so the map is chosen
    purely for load balance: sync managers live at ``id % n_procs``
    (:meth:`~repro.protocols.base.Protocol.lock_home`), so the low node
    ids host every lock/barrier/flag manager of a typical app —
    interleaving spreads that protocol-event load across shards, where a
    contiguous split concentrates it in shard 0.
    """
    return [i % shards for i in range(n_procs)]


class ShardedSimulator(Simulator):
    """Windowed multi-queue drop-in for :class:`Simulator`.

    Exposes the same scheduling surface (``at``/``after``/
    ``deliver_remote``/``run``/``now``/``events_processed``); adds
    ``barrier_hook``, called as ``barrier_hook(t)`` after every epoch
    (the stall watchdog's shard-aware check point).
    """

    def __init__(
        self,
        n_procs: int,
        shards: int,
        lookahead: int,
        max_cycles: int = 1 << 62,
    ) -> None:
        super().__init__(max_cycles=max_cycles)
        if not 1 <= shards <= n_procs:
            raise ValueError(
                f"shards must be in 1..n_procs={n_procs}, got {shards}"
            )
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1 cycle")
        self.n_shards = shards
        self.lookahead = lookahead
        self.shard_of = shard_map(n_procs, shards)
        self.queues = [EventQueue() for _ in range(shards)]
        self.boundary = ShardBoundary(shards)
        self.epochs = 0
        self.barrier_hook = None
        self._cur = 0
        self._final = 0
        # Wall-clock seconds spent executing each shard's windows.  The
        # shards' windows are mutually independent within an epoch, so
        # ``max(busy)`` is the critical-path execution time a host with
        # >= n_shards cores would pay (benchmarks/test_pdes_scaling.py).
        self.busy = [0.0] * shards

    # -- routing -----------------------------------------------------------------

    def on_node(self, node_id: int) -> None:
        """Route subsequent scheduling to ``node_id``'s shard (used while
        seeding the initial per-node events, before the loop runs)."""
        self._cur = self.shard_of[node_id]

    def at(self, time: int, callback: Callable, *args: Any) -> None:
        # The shard queue's own clock is the past-check floor: inside a
        # window it equals ``now``.
        self.queues[self._cur].push(time, callback, *args)

    def deliver_remote(
        self,
        time: int,
        src: int,
        src_seq: int,
        callback: Callable,
        args: tuple,
        dst: int,
    ) -> None:
        ds = self.shard_of[dst]
        if ds == self._cur:
            # Same-shard arrival: straight into the heap; the window
            # proof puts it at or beyond the horizon.
            self.queues[ds].push_remote(time, src, src_seq, callback, args)
        else:
            self.boundary.route(ds, time, src, src_seq, callback, args)

    def has_pending(self) -> bool:
        return bool(self.boundary.count) or any(self.queues)

    # -- the windowed loop -------------------------------------------------------

    def min_next(self):
        """Earliest pending event time across all shard queues (barrier
        state: the boundary must be drained first), or ``None``."""
        best = None
        for q in self.queues:
            t = q.peek_time()
            if t is not None and (best is None or t < best):
                best = t
        return best

    def run_window(self, s: int, horizon: int) -> int:
        """Execute every event of shard ``s`` with time < ``horizon``;
        return the max event time executed so far (machine-wide)."""
        q = self.queues[s]
        heap = q._heap
        final = self.now if self.now > self._final else self._final
        if heap and heap[0][0] < horizon:
            hook = self.post_event_hook
            max_cycles = self.max_cycles
            self._cur = s
            t0 = time.perf_counter()
            while heap and heap[0][0] < horizon:
                t, callback, args = q.pop()
                if t > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self.now = t
                callback(*args)
                self.events_processed += 1
                if hook is not None:
                    hook()
            self.busy[s] += time.perf_counter() - t0
            if self.now > final:
                final = self.now
        self._final = final
        return final

    def run(self) -> int:
        boundary = self.boundary
        lookahead = self.lookahead
        while True:
            boundary.exchange(self.queues)
            nxt = self.min_next()
            if nxt is None:
                break
            horizon = nxt + lookahead
            for s in range(self.n_shards):
                self.run_window(s, horizon)
            self.epochs += 1
            if self.barrier_hook is not None:
                self.barrier_hook(self._final)
        self.now = self._final
        return self.now
