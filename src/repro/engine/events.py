"""Deterministic time-ordered event queue.

A thin wrapper over :mod:`heapq` whose ordering key is *canonical*: it
depends only on simulated time plus per-source sequence numbers, never
on the order in which events happened to be inserted.  The golden
fixtures encode exactly this order, so the same-timestamp tie-break is
part of the behaviour contract, not an implementation detail.

Two lanes exist at every timestamp, one entry shape each:

* **local** (lane 0) ``(time, 0, seq, callback, args)`` — events a node
  schedules for itself (CPU quanta, protocol follow-ups, receive-NIC
  hand-offs deferred by contention).  ``seq`` is an explicit monotonic
  insertion sequence, so same-time local events fire in FIFO order.
* **remote** (lane 1) ``(time, 1, src, src_seq, handler, args, nic, dst,
  occ)`` — a cross-node message *is* its arrival: the entry carries the
  handler and its arguments plus the receive-NIC list, the destination
  node and the message's NIC occupancy, and the event loop books
  ``nic[dst]`` before it hands off (:meth:`Simulator.run
  <repro.engine.simulator.Simulator.run>`).  Ties break by ``(src,
  src_seq)``: the sending node's id plus its per-source send counter.
  Both are properties of the *sender's* own deterministic execution, so
  remote arrivals sort identically no matter in which order the sends
  executed.

At equal timestamps the local lane fires before the remote lane.  The
key is a total order, so tuple comparison never reaches a callback (the
bug class the explicit tie-breaks exist to prevent): two entries of
different lanes differ at index 1, two local entries at their unique
``seq``, and two remote entries at their ``(src, src_seq)`` pair, which
the fabric's per-source counter never repeats.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Iterator, List, Tuple

#: Lane of events a node schedules for itself (FIFO by insertion).
LANE_LOCAL = 0
#: Lane of cross-node arrivals (ordered by ``(src, src_seq)``).
LANE_REMOTE = 1


class EventQueue:
    """Min-heap of local and remote-lane entries (module docstring).

    ``push`` and ``push_remote`` build one lane's entry each.  Hot paths
    build entries in the same layouts inline: the fabric's send (through
    :meth:`remote_pusher` and :meth:`local_lane`), the CPU's wake-up and
    the simulator loop's deferred receive-NIC hand-off.  ``now`` is the
    queue's clock: the time of the latest popped event.  Scheduling
    before it is a programming error and raises.  A loop that pops the heap itself (the serial
    :class:`~repro.engine.simulator.Simulator`, which *is* an event
    queue) advances ``now`` itself.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list = []
        # The local lane's insertion sequence: ``next(self._seq)`` is one
        # C-level call wherever an entry is built.
        self._seq = count()
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
        heappush(self._heap, (time, LANE_LOCAL, next(self._seq), callback, args))

    def push_remote(
        self,
        time: int,
        src: int,
        src_seq: int,
        handler: Callable,
        args: tuple,
        nic: List[int],
        dst: int,
        occ: int,
    ) -> None:
        """Schedule the arrival of a message from ``src`` with canonical
        key ``(time, src, src_seq)``.

        At ``time`` the event loop books the receive NIC ``nic[dst]`` for
        ``occ`` cycles and hands off ``handler(t, *args)`` when it frees.
        ``src_seq`` must be unique per source (the fabric's per-node send
        counter), making the key a total order independent of insertion
        order.
        """
        if time < self.now:
            raise ValueError(
                f"arrival scheduled in the past: {time} < now={self.now}"
            )
        heappush(
            self._heap,
            (time, LANE_REMOTE, src, src_seq, handler, args, nic, dst, occ),
        )

    def remote_pusher(self) -> Callable[[tuple], None]:
        """``push(entry)`` for a prebuilt remote-lane entry: ``heappush``
        on this queue's heap, bound once and called with no Python frame.

        The fabric's send path builds its entries in the layout above and
        pushes them through this.  It skips ``push_remote``'s past-time
        check: a message arrives no earlier than it is sent, and every
        send happens at or after ``now``.
        """
        return partial(heappush, self._heap)

    def local_lane(self) -> Tuple[list, Iterator[int]]:
        """``(heap, seq)``: the heap and the local lane's sequence counter,
        for a hot path that builds local entries itself and pushes
        ``(time, LANE_LOCAL, next(seq), callback, args)`` with ``heappush``.

        Like :meth:`remote_pusher`, it skips ``push``'s past-time check,
        so the caller must schedule at or after ``now``.
        """
        return self._heap, self._seq

    def pop(self) -> Tuple[int, Callable, tuple]:
        """Remove the earliest entry, advance ``now`` to its time and
        return ``(time, callback, args)``.  A remote entry is returned
        as its handler and arguments, its NIC left unbooked: only the
        simulator's loop performs arrivals."""
        entry = heappop(self._heap)
        self.now = entry[0]
        if entry[1] == LANE_LOCAL:
            return entry[0], entry[3], entry[4]
        return entry[0], entry[4], entry[5]
