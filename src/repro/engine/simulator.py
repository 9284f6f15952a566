"""Global simulation loop.

The simulator owns the event queue and the global clock.  Processors and
protocol components schedule callbacks on it; :meth:`Simulator.run` drains
events until the queue is empty (all programs finished) or a safety limit
is reached.

The serial simulator *is* its event queue: :meth:`Simulator.at` and
:meth:`Simulator.deliver_remote` are the queue's own ``push`` and
``push_remote``, so scheduling an event costs one call and builds the
key in the one place each lane's key is defined.  Cross-node deliveries
carry the canonical remote-lane key ``(time, src, src_seq)`` (see
:mod:`repro.engine.events`), the order the golden fixtures encode.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable

from repro.engine.events import EventQueue


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

    #: ``deliver_remote(time, src, src_seq, callback, args)``: schedule
    #: a cross-node arrival with the canonical remote-lane key
    #: ``(time, src, src_seq)``.
    deliver_remote = EventQueue.push_remote

    def after(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        self.at(self.now + delay, callback, *args)

    def run(self) -> int:
        """Drain the event queue; return the final simulated time."""
        heap = self._heap
        hook = self.post_event_hook
        max_cycles = self.max_cycles
        n = 0
        try:
            while heap:
                time, _lane, _k1, _k2, _seq, callback, args = heappop(heap)
                if time > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded max_cycles={self.max_cycles}"
                    )
                self.now = time
                callback(*args)
                n += 1
                if hook is not None:
                    hook()
        finally:
            self.events_processed += n
        return self.now
