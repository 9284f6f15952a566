"""The per-message fault oracle.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete per-message decisions.  The fabric consults it once per
physical transmission (first sends, retransmits, and acks alike); the
injector owns one seeded PRNG substream *per transmitting node*, so each
node's fault schedule is a pure function of (plan, that node's own
transmission order).  Per-node streams — rather than one global stream —
keep the schedule independent of cross-node event interleaving: a
change that moves one node's events cannot reshuffle every other
node's faults.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan

#: A transmission the injector leaves alone (shared, immutable).
_CLEAN = None  # set below, after Decision is defined


class Decision:
    """What happens to one physical transmission."""

    __slots__ = ("drop", "dup", "extra")

    def __init__(self, drop: bool = False, dup: bool = False, extra: int = 0) -> None:
        self.drop = drop
        self.dup = dup
        self.extra = extra  # added transit cycles (delay / reorder jitter)

    def __repr__(self) -> str:
        return f"Decision(drop={self.drop}, dup={self.dup}, extra={self.extra})"


_CLEAN = Decision()


class FaultInjector:
    """Seeded, deterministic fault decisions for a whole run."""

    __slots__ = ("plan", "seed", "_rngs")

    def __init__(self, plan: FaultPlan, seed=None) -> None:
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self._rngs: dict = {}

    def _rng_for(self, src: int) -> random.Random:
        """The transmitting node's private PRNG substream.

        Seeded from (run seed, node id) via the string form, which
        :mod:`random` hashes with SHA-512 — deterministic across
        processes and ``PYTHONHASHSEED`` values.
        """
        rng = self._rngs.get(src)
        if rng is None:
            rng = self._rngs[src] = random.Random(f"{self.seed}:{src}")
        return rng

    def decide(self, src: int, dst: int, channel: str, t: int) -> Decision:
        """The fate of one transmission injected at time ``t``.

        Messages outside the plan's (src, dst, channel) filter are
        always clean.  The effective rates are the plan's base rates or,
        inside a scripted phase window, that phase's rates
        (:meth:`FaultPlan.rates_at`); inside a burst window whichever
        set is live is multiplied by ``burst_mult`` (clamped to 1.0).
        """
        plan = self.plan
        if not plan.matches(src, dst, channel):
            return _CLEAN
        if plan.phases:
            drop, dup_rate, delay, reorder = plan.rates_at(t)
        else:
            drop, dup_rate, delay, reorder = (
                plan.drop, plan.dup, plan.delay, plan.reorder,
            )
        if not (drop or dup_rate or delay or reorder):
            # A scripted calm window consumes no randomness, so the
            # fault schedule inside the faulty windows is independent
            # of how much clean traffic flowed between them.
            return _CLEAN
        rng = self._rng_for(src)
        mult = plan.burst_mult if plan.in_burst(t) else 1.0
        if rng.random() < min(1.0, drop * mult):
            # A dropped message needs no further decisions; still a
            # single decision point so schedules shift minimally.
            return Decision(drop=True)
        dup = rng.random() < min(1.0, dup_rate * mult)
        extra = 0
        if plan.delay_cycles:
            if delay and rng.random() < min(1.0, delay * mult):
                extra += rng.randint(1, plan.delay_cycles)
            if reorder and rng.random() < min(1.0, reorder * mult):
                extra += rng.randint(1, plan.delay_cycles)
        if not dup and not extra:
            return _CLEAN
        return Decision(dup=dup, extra=extra)
