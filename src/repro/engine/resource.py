"""Busy-until occupancy resources.

Memory ports, local buses and protocol processors are modeled as
serially-occupied resources: a request arriving at time ``t`` begins
service at ``max(t, free_at)`` and holds the resource for its occupancy.
Because the global event loop processes events in non-decreasing time
order, reservations are made in (approximately) arrival order.

A resource is one bare ``free_at`` cycle.  :meth:`Resource.reserve` is
the reference booking; the message handlers on the lazy protocols' hot
paths book ``free_at`` inline with the same rule, as the fabric's
network interfaces (flat per-channel ``free_at`` lists,
:mod:`repro.network.fabric`) and the receive-NIC booking in the event
loop (:meth:`repro.engine.simulator.Simulator.run`) do.
"""

from __future__ import annotations


class Resource:
    """A single serially-reusable resource with busy-until semantics."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at: int = 0

    def reserve(self, t: int, duration: int) -> int:
        """Reserve the resource at or after ``t`` for ``duration`` cycles.

        Returns the *completion* time of the reservation.  ``duration`` of
        zero returns ``max(t, free_at)`` without occupying anything.
        """
        free = self.free_at
        end = (t if t >= free else free) + duration
        self.free_at = end
        return end
