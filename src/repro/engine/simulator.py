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
:mod:`repro.engine.events`).  The sharded scheduler
(:mod:`repro.engine.shard`) overrides only the routing decision — the
per-event execution discipline is this class's, which is what makes
sharded runs bit-identical to serial ones.
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
        "machine",
    )

    def __init__(self, max_cycles: int = 1 << 62) -> None:
        super().__init__()
        self.max_cycles = max_cycles
        # Observability hook called (with no arguments) after every event;
        # set before run() (e.g. per-event invariant checking).
        self.events_processed: int = 0
        self.post_event_hook = None
        # Back-reference to the owning Machine (set by Machine.__init__);
        # snapshot() needs the whole object graph, and events reference
        # it anyway through their callbacks.
        self.machine = None

    def on_node(self, node_id: int) -> None:
        """Scheduling-affinity hint: subsequent events belong to
        ``node_id``.  The serial simulator has one queue and ignores it;
        the sharded scheduler routes to the node's shard."""

    def shard_effect(self, dst: int, kind: str, block: int) -> None:
        """Declare a cross-node state mark just written to node ``dst``
        (e.g. the "reply in flight" counters protocols set on a *remote*
        node at send time).  A no-op under shared memory — serial and
        in-process-sharded runs see the write directly; the forked
        process backend replicates it to ``dst``'s worker at the next
        epoch barrier, which precedes every event that could observe it
        (the mark's observers all run at message arrivals, ``>=``
        lookahead after the write)."""

    def has_pending(self) -> bool:
        """Whether any event (including in-flight cross-shard ones) exists."""
        return bool(self._heap)

    #: ``at(time, callback, *args)``: schedule ``callback(*args)`` at
    #: absolute ``time``; scheduling in the past raises.
    at = EventQueue.push

    #: ``deliver_remote(time, src, src_seq, callback, args, dst)``:
    #: schedule a cross-node arrival at ``dst`` with the canonical
    #: remote-lane key ``(time, src, src_seq)``.  ``dst`` routes the
    #: event to its owning shard in sharded mode; the serial simulator
    #: has a single queue and ignores it.
    deliver_remote = EventQueue.push_remote

    def after(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        self.at(self.now + delay, callback, *args)

    # -- checkpointing (engine.checkpoint; DESIGN.md §15) ------------------------

    def snapshot(self):
        """Checkpoint the owning machine's full state at this quiescent
        point; returns a verified :class:`~repro.engine.checkpoint.Checkpoint`.

        Event callbacks reference the machine graph, so a simulator is
        only checkpointable as part of its machine.  Call between events
        (serial) or from ``barrier_hook`` (sharded).
        """
        from repro.engine.checkpoint import CheckpointError, snapshot_machine

        if self.machine is None:
            raise CheckpointError(
                "this simulator has no owning Machine; snapshot whole "
                "machines (Machine.snapshot), not bare simulators"
            )
        return snapshot_machine(self.machine)

    @staticmethod
    def restore(checkpoint) -> "Simulator":
        """Rebuild the checkpointed machine; returns its simulator
        (``sim.machine`` reaches the rest)."""
        from repro.engine.checkpoint import restore_machine

        return restore_machine(checkpoint).sim

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
