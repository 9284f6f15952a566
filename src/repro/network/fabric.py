"""The interconnect fabric: endpoint-contended message delivery.

Timing model (Section 3 of the paper):

* transit of a control message  = ``(switch + wire) * hops``
* transit of a data message     = ``(switch + wire) * hops + size / net_bw``
* contention is modeled at the sending and receiving network interfaces
  (serially-occupied, busy-until), not at intermediate switches.

A message injected at time ``t`` starts leaving the source NIC at
``max(t, free_at)``; its tail occupies the NIC for the serialization
time; it arrives at the destination after the transit latency; and it
is handed to the destination protocol processor no earlier than the
receive NIC frees up.

Delivery is two-phase (DESIGN.md §14): the send books only the source
NIC and computes the wire-arrival time; the message's remote-lane entry
in the event queue, keyed ``(arrival, src, src_seq)``, *is* its arrival.
It carries the handler and arguments, the receive-NIC list, ``dst`` and
the occupancy, and the event loop books the receive NIC when it pops the
entry (:meth:`repro.engine.simulator.Simulator.run`).  Receive-side
contention is therefore resolved in canonical arrival order — never in
the order sends happened to execute — which is the order the golden
fixtures encode.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappush
from typing import Any, Callable, List, Tuple

from repro.config import SystemConfig
from repro.engine.events import LANE_LOCAL, LANE_REMOTE
from repro.engine.simulator import Simulator
from repro.network.messages import DATA_BEARING, MessageStats, MsgType


@lru_cache(maxsize=4)
def hop_table(n: int, width: int) -> Tuple[Tuple[int, ...], ...]:
    """Mesh hop counts (:meth:`SystemConfig.hops`) of every node pair of
    an ``n``-node mesh ``width`` nodes wide, as ``table[src][dst]``.

    Built once per mesh and shared, read-only, by every fabric on it.
    Rows hold Python ints, not bytes: a prime ``n`` makes a 1 x n mesh,
    whose hop counts reach ``n - 1``, past 255 once ``n`` passes 256.
    """
    xs = [i % width for i in range(n)]
    ys = [i // width for i in range(n)]
    return tuple(
        tuple(abs(x - xd) + abs(y - yd) for xd, yd in zip(xs, ys))
        for x, y in zip(xs, ys)
    )


class Fabric:
    """Point-to-point message delivery over the mesh.

    Each endpoint has two virtual channels — control and data — so small
    coherence requests never serialize behind line-sized transfers (the
    request/reply network split of DASH-class machines).  Contention is
    modeled within each channel.

    NIC state is four flat lists, one busy-until cycle per node:
    ``data_out``/``data_in`` and ``ctl_out``/``ctl_in`` (channel x
    direction).  A NIC booked at ``t`` for ``occ`` cycles starts at
    ``max(t, free)`` and is busy until ``start + occ``.
    """

    def __init__(self, config: SystemConfig, sim: Simulator) -> None:
        self.config = config
        self.sim = sim
        self.stats = MessageStats()
        n = config.n_procs
        self.data_out: List[int] = [0] * n
        self.data_in: List[int] = [0] * n
        self.ctl_out: List[int] = [0] * n
        self.ctl_in: List[int] = [0] * n
        # Hop counts, one row per source node: a send indexes
        # ``_hops[src][dst]``.
        self._hops = hop_table(n, config.mesh_dims[0])
        # Per-source send counters: the canonical remote-lane tie-break.
        # Incremented in the sender's own (deterministic) execution order,
        # so the key never depends on cross-node event interleaving.
        self._sseq: List[int] = [0] * n
        # Hot-path constants hoisted out of send(): the payload size of
        # every message type, and the NIC occupancy of every payload size
        # up to a line (size 0 is a header-only control message).
        self._hop_lat = config.hop_latency
        self._size = [
            config.line_size if m in DATA_BEARING else 0 for m in MsgType
        ]
        self._occ = [
            config.nic_occupancy(size) for size in range(config.line_size + 1)
        ]
        self._count = self.stats.count
        self._bytes = self.stats.bytes
        # The remote-lane push of a message's arrival entry.  The jitter
        # fabric rebinds it to delay arrivals (repro.network.jitter).
        self._deliver_remote = sim.remote_pusher()
        # A same-node message is a local-lane event at its send time.
        self._heap, self._lseq = sim.local_lane()
        # Event tracer (set by Machine when tracing is on).
        self.tracer = None

    def payload_size(self, mtype: MsgType) -> int:
        return self._size[mtype]

    def send(
        self,
        src: int,
        dst: int,
        mtype: MsgType,
        t: int,
        handler: Callable,
        *args: Any,
        size: int = -1,
    ) -> int:
        """Send a message; schedule ``handler(deliver_time, *args)``.

        ``size`` overrides the payload size implied by the message type
        (used by coalescing-buffer flushes, which carry only the dirty
        words).  Returns the wire-arrival time (local sends: ``t``); the
        exact hand-off time additionally waits out receive-NIC
        contention, resolved at arrival.
        """
        if size < 0:
            size = self._size[mtype]
        self._count[mtype] += 1
        self._bytes[mtype] += size
        if src == dst:
            # Local delivery: no network traversal, only the protocol
            # processor hand-off (modeled by the handler's own costs).
            if self.tracer is not None:
                self.tracer.emit(
                    "msg", src, t=t, dst=dst, type=MsgType(mtype).name, size=size,
                    arrival=t,
                )
            heappush(
                self._heap, (t, LANE_LOCAL, next(self._lseq), handler, (t, *args))
            )
            return t
        hops = self._hops[src][dst]
        self.stats.total_hops += hops
        occ = self._occ[size]
        if size:
            out = self.data_out
            free = out[src]
            start = t if t >= free else free
            out[src] = start + occ
            arrival = start + self._hop_lat * hops + occ
            chan = self.data_in
        else:
            out = self.ctl_out
            free = out[src]
            start = t if t >= free else free
            out[src] = start + occ
            arrival = start + self._hop_lat * hops
            chan = self.ctl_in
        if self.tracer is not None:
            self.tracer.emit(
                "msg", src, t=t, dst=dst, type=MsgType(mtype).name, size=size,
                arrival=arrival,
            )
        sseq = self._sseq[src]
        self._sseq[src] = sseq + 1
        self._deliver_remote(
            (arrival, LANE_REMOTE, src, sseq, handler, args, chan, dst, occ)
        )
        return arrival
