"""Busy-until occupancy resources.

Memory modules, local buses and protocol processors are modeled as
serially-occupied resources: a request arriving at time ``t`` begins
service at ``max(t, free_at)`` and holds the resource for its occupancy.
Because the global event loop processes events in non-decreasing time
order, reservations are made in (approximately) arrival order.  The
fabric's network interfaces follow the same busy-until rule, kept as
flat per-channel ``free_at`` lists (:mod:`repro.network.fabric`).
"""

from __future__ import annotations


class Resource:
    """A single serially-reusable resource with busy-until semantics."""

    __slots__ = ("name", "free_at", "busy_cycles", "requests")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.free_at: int = 0
        self.busy_cycles: int = 0   # total occupancy, for utilization stats
        self.requests: int = 0

    def reserve(self, t: int, duration: int) -> int:
        """Reserve the resource at or after ``t`` for ``duration`` cycles.

        Returns the *completion* time of the reservation.  ``duration`` of
        zero returns ``max(t, free_at)`` without occupying anything.
        """
        free = self.free_at
        end = (t if t >= free else free) + duration
        self.free_at = end
        self.busy_cycles += duration
        self.requests += 1
        return end

    def reset(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0
        self.requests = 0
