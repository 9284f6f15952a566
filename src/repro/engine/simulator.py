"""Global simulation loop.

The simulator owns the event queue and the global clock.  Processors and
protocol components schedule callbacks on it; :meth:`Simulator.run` drains
events until the queue is empty (all programs finished) or a safety limit
is reached.

The serial simulator *is* its event queue: :meth:`Simulator.at` and
:meth:`Simulator.deliver_remote` are the queue's own ``push`` and
``push_remote``, so scheduling an event costs one call.  A cross-node
message's remote-lane entry *is* its arrival (entry layouts in
:mod:`repro.engine.events`): the loop itself books the receive NIC, in
the canonical ``(time, src, src_seq)`` order the golden fixtures encode,
and calls the handler directly, with no trampoline event in between.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.engine.events import LANE_LOCAL, EventQueue


class DeadlockError(RuntimeError):
    """Raised when the event queue empties while processors are blocked."""


class Simulator(EventQueue):
    """Event loop with a monotonically non-decreasing global clock."""

    __slots__ = (
        "max_cycles",
        "events_processed",
        "post_event_hook",
    )

    def __init__(self, max_cycles: int = 1 << 62) -> None:
        super().__init__()
        self.max_cycles = max_cycles
        # Observability hook called (with no arguments) after every event;
        # set before run() (e.g. per-event invariant checking).
        self.events_processed: int = 0
        self.post_event_hook = None

    #: ``at(time, callback, *args)``: schedule ``callback(*args)`` at
    #: absolute ``time``; scheduling in the past raises.
    at = EventQueue.push

    #: ``deliver_remote(time, src, src_seq, handler, args, nic, dst,
    #: occ)``: schedule a cross-node arrival with the canonical
    #: remote-lane key ``(time, src, src_seq)``.
    deliver_remote = EventQueue.push_remote

    def after(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        self.at(self.now + delay, callback, *args)

    def run(self) -> int:
        """Drain the event queue; return the final simulated time.

        A remote-lane entry is one arrival event: it books the receive
        NIC ``nic[dst]`` (busy-until, like every resource) and calls
        ``handler(t, *args)`` at once if the NIC is free, or defers the
        hand-off to a local-lane event at the time it frees.  With no
        ``post_event_hook`` set, the loop has no per-event hook check;
        :meth:`_run_hooked` is the same loop with the hook.
        """
        if self.post_event_hook is not None:
            return self._run_hooked()
        heap = self._heap
        seq = self._seq
        max_cycles = self.max_cycles
        n = 0
        try:
            while heap:
                entry = heappop(heap)
                time = entry[0]
                if time > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded max_cycles={self.max_cycles}"
                    )
                self.now = time
                if entry[1]:
                    _t, _lane, _src, _sseq, handler, args, nic, dst, occ = entry
                    free = nic[dst]
                    if free <= time:
                        nic[dst] = time + occ
                        handler(time, *args)
                    else:
                        nic[dst] = free + occ
                        heappush(
                            heap,
                            (free, LANE_LOCAL, next(seq), handler, (free, *args)),
                        )
                else:
                    entry[3](*entry[4])
                n += 1
        finally:
            self.events_processed += n
        return self.now

    def _run_hooked(self) -> int:
        """:meth:`run`, calling ``post_event_hook()`` after every event."""
        heap = self._heap
        seq = self._seq
        hook = self.post_event_hook
        max_cycles = self.max_cycles
        n = 0
        try:
            while heap:
                entry = heappop(heap)
                time = entry[0]
                if time > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded max_cycles={self.max_cycles}"
                    )
                self.now = time
                if entry[1]:
                    _t, _lane, _src, _sseq, handler, args, nic, dst, occ = entry
                    free = nic[dst]
                    if free <= time:
                        nic[dst] = time + occ
                        handler(time, *args)
                    else:
                        nic[dst] = free + occ
                        heappush(
                            heap,
                            (free, LANE_LOCAL, next(seq), handler, (free, *args)),
                        )
                else:
                    entry[3](*entry[4])
                n += 1
                hook()
        finally:
            self.events_processed += n
        return self.now
