"""Simulation stall detection.

A livelocked protocol (lost wakeup, re-fetch loop, ping-pong without
progress) keeps the event queue busy forever, so the simulator never
returns and the ``max_cycles`` ceiling — sized for the slowest *healthy*
run — takes ages to trip.  The :class:`StallWatchdog` raises a
structured :class:`SimulationStall` as soon as *no processor commits an
operation* for ``interval`` simulated cycles, carrying the trace window
around the stall when a tracer is attached.  The experiment runner's
pool workers (:func:`repro.harness.runner.run_specs`) enable it by
default, so a livelocked spec becomes a persisted
:class:`~repro.results.store.RunFailure` instead of a hung pool.

The watchdog is pure observation: its periodic check reads counters and
either reschedules itself or raises.  It never touches protocol state or
resources, so enabling it cannot move a single simulated cycle, and it
stops rescheduling once every processor finished (or the event queue
drained, preserving the machine's ordinary ``DeadlockError`` diagnosis).
"""

from __future__ import annotations

#: Default no-progress window, in simulated cycles.  Legitimate
#: zero-commit gaps are bounded by a handful of contended network
#: round-trips and a long barrier or lock wait — well under 1M cycles —
#: so 5M is conservative while still turning an infinite hang into a
#: prompt structured failure.
DEFAULT_STALL_CYCLES = 5_000_000

#: Environment variable enabling the watchdog process-wide (cycles;
#: unset or "0" = off).  ``tests/conftest.py`` sets it so tier-1 can
#: never hang CI, and the experiment runner's pool workers default it on.
ENV_STALL_CYCLES = "REPRO_STALL_CYCLES"


class SimulationStall(RuntimeError):
    """The simulation stopped making forward progress.

    Raised by the watchdog (``kind="watchdog"``) when no processor
    commits an operation for the configured window.  ``window`` holds
    formatted trace lines anchored at the stall when a tracer was
    attached.
    """

    def __init__(
        self,
        message: str,
        kind: str = "watchdog",
        cycle: int = 0,
        window=None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.cycle = cycle
        self.window = list(window or [])


class StallWatchdog:
    """Periodic no-progress check over one :class:`~repro.core.machine.Machine`,
    run as a self-rescheduling event."""

    __slots__ = ("machine", "interval", "_last")

    def __init__(self, machine, interval: int = DEFAULT_STALL_CYCLES) -> None:
        if interval < 1:
            raise ValueError("watchdog interval must be >= 1 cycle")
        self.machine = machine
        self.interval = interval
        self._last = -1

    def progress(self) -> int:
        """Monotone progress signal: committed ops + finished processors."""
        total = self.machine._finished
        for p in self.machine.stats.procs:
            total += p.reads + p.writes + p.acquires + p.releases + p.barriers
        return total

    def arm(self) -> None:
        sim = self.machine.sim
        self._last = self.progress()
        sim.at(sim.now + self.interval, self._check)

    def _stall(self, now: int) -> None:
        m = self.machine
        window = []
        if m.tracer is not None:
            window = [m.tracer.format_event(e) for e in m.tracer.tail(32)]
        stuck = [
            (n.id, n.proc.block_reason, n.out_count)
            for n in m.nodes
            if not n.proc.done
        ]
        raise SimulationStall(
            f"no processor committed an operation for {self.interval} "
            f"cycles (t={now}; {len(stuck)} unfinished, "
            f"(id, reason, outstanding): {stuck[:8]})",
            kind="watchdog",
            cycle=now,
            window=window,
        )

    def _check(self) -> None:
        m = self.machine
        sim = m.sim
        if m._finished >= m.config.n_procs:
            return  # all done; let the queue drain
        if not sim:
            # Queue drained with processors blocked: a true deadlock.
            # Don't reschedule — Machine.run's DeadlockError diagnosis
            # (which names the stuck processors) is the better report.
            return
        cur = self.progress()
        if cur == self._last:
            self._stall(sim.now)
        self._last = cur
        sim.at(sim.now + self.interval, self._check)

