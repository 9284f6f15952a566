"""Deterministic time-ordered event queue.

A thin wrapper over :mod:`heapq` whose ordering key is *canonical*: it
depends only on simulated time plus per-source sequence numbers, never
on the order in which events happened to be inserted.  The golden
fixtures encode exactly this order, so the same-timestamp tie-break is
part of the behaviour contract, not an implementation detail.

Two lanes exist at every timestamp:

* **local** (lane 0) — events a node schedules for itself (CPU quanta,
  protocol follow-ups, resource completions).  Ties break by an explicit
  monotonic insertion sequence, so same-time local events fire in FIFO
  order.
* **remote** (lane 1) — cross-node arrivals injected by the fabric.
  Ties break by ``(src, src_seq)``: the sending node's id plus its
  per-source send counter.  Both are properties of the *sender's* own
  deterministic execution, so remote arrivals sort identically no matter
  in which order the sends executed.

At equal timestamps the local lane fires before the remote lane.  Heap
entries always carry the full ``(time, lane, k1, k2, seq)`` key before
the callback, so tuple comparison can never fall through to comparing
callbacks (the bug class the explicit-seq tie-break exists to prevent).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Tuple

#: Lane of events a node schedules for itself (FIFO by insertion).
LANE_LOCAL = 0
#: Lane of cross-node arrivals (ordered by ``(src, src_seq)``).
LANE_REMOTE = 1


class EventQueue:
    """Min-heap of ``(time, lane, k1, k2, seq, callback, args)`` events.

    ``push`` and ``push_remote`` are the only places a heap key is built
    (one function per lane).  ``now`` is the queue's clock: the time of
    the latest popped event.  Scheduling before it is a programming
    error and raises.  A driver that pops the heap itself (the serial
    :class:`~repro.engine.simulator.Simulator`, which *is* an event
    queue) advances ``now`` itself.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq: int = 0
        self.now: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule local-lane ``callback(*args)`` at ``time``.

        Events at equal times fire in insertion (FIFO) order, by an
        explicit monotonic sequence number.
        """
        if time < self.now:
            raise ValueError(
                f"event scheduled in the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, LANE_LOCAL, seq, 0, seq, callback, args))

    def push_remote(
        self,
        time: int,
        src: int,
        src_seq: int,
        callback: Callable,
        args: tuple,
    ) -> None:
        """Schedule a remote arrival from ``src`` with canonical key
        ``(time, src, src_seq)``.

        ``src_seq`` must be unique per source (the fabric's per-node send
        counter), making the key a total order independent of insertion
        order.
        """
        if time < self.now:
            raise ValueError(
                f"arrival scheduled in the past: {time} < now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap, (time, LANE_REMOTE, src, src_seq, seq, callback, args)
        )

    def pop(self) -> Tuple[int, Callable, tuple]:
        """Remove the earliest event, advance ``now`` to its time and
        return ``(time, callback, args)``."""
        time, _lane, _k1, _k2, _seq, callback, args = heappop(self._heap)
        self.now = time
        return time, callback, args
