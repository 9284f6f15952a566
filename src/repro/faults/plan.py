"""Deterministic fault-injection plans.

A :class:`FaultPlan` describes *what can go wrong* on the interconnect:
per-message probabilities of dropping, duplicating, or delaying a
message, optional periodic burst windows during which those rates are
multiplied, and an optional (src, dst, channel) filter restricting the
faults to part of the machine.  A plan is pure data — frozen, hashable,
JSON round-trippable — and, like everything else that changes simulated
numbers, it is part of ``ExperimentSpec.fingerprint()`` so faulty and
fault-free runs never share a result-store slot.

Plans can additionally be *phase-scripted*: a tuple of
:class:`FaultPhase` windows, each a ``[start, end)`` range of simulated
cycles with its own absolute rates.  Inside a phase window the phase's
rates replace the plan's base rates entirely, which is how the scenario
library (:mod:`repro.scenarios`) scripts good→bad→good link behaviour —
base rates describe the good link, phases describe the outages.  Phase
windows must be sorted and non-overlapping so the effective rate at any
cycle is unambiguous.

Determinism: all randomness is drawn from one ``random.Random(seed)``
stream owned by the injector, and the simulator consults it in a fixed
event order, so the same (program, plan) pair always produces the same
fault schedule bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

#: Channel names accepted by :attr:`FaultPlan.channel`.
CHANNELS = ("ctl", "data")


@dataclass(frozen=True)
class FaultPhase:
    """One scripted window of the fault schedule.

    ``start``/``end`` bound the window in simulated cycles
    (``start <= t < end``); the four rates are *absolute* per-message
    probabilities that replace the plan's base rates for the window's
    duration.  An all-zero phase is a scripted calm (useful to carve a
    known-good window out of an otherwise-faulty run).
    """

    start: int
    end: int
    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0

    RATE_FIELDS = ("drop", "dup", "delay", "reorder")

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"phase start must be >= 0, got {self.start!r}")
        if self.end <= self.start:
            raise ValueError(
                f"phase window must satisfy start < end, got "
                f"[{self.start!r}, {self.end!r})"
            )
        for name in self.RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"phase {name} rate must be in [0, 1], got {v!r}")

    def covers(self, t: int) -> bool:
        return self.start <= t < self.end

    @property
    def active(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in self.RATE_FIELDS)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPhase":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown FaultPhase fields: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class FaultPlan:
    """One adversarial-delivery scenario, fully specified.

    Rates are per-message probabilities in ``[0, 1]``:

    * ``drop``   — the message is lost in flight (sender NIC still paid);
    * ``dup``    — a second copy arrives one cycle after the first;
    * ``delay``  — transit is stretched by 1..``delay_cycles`` extra
      cycles (jitter, which also *reorders* messages within a channel);
    * ``reorder``— an extra independent jitter draw, kept as a separate
      knob so reordering pressure can be raised without raising loss.

    ``burst_every``/``burst_len`` define periodic windows (in simulated
    cycles) during which every rate is multiplied by ``burst_mult`` —
    faults in the wild cluster, and burst loss is what stresses the
    retransmit backoff.  ``src``/``dst``/``channel`` restrict injection
    to matching messages (``None`` matches everything).

    ``rto`` (0 = derive from the machine's timing parameters) and
    ``max_retries`` tune the recovery layer, not the faults themselves.
    """

    seed: int = 0
    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    delay_cycles: int = 200
    burst_every: int = 0
    burst_len: int = 0
    burst_mult: float = 4.0
    src: Optional[int] = None
    dst: Optional[int] = None
    channel: Optional[str] = None
    rto: int = 0
    max_retries: int = 12
    phases: Tuple[FaultPhase, ...] = field(default=())

    #: Fields that are per-message probabilities.
    RATE_FIELDS = ("drop", "dup", "delay", "reorder")

    def __post_init__(self) -> None:
        phases = tuple(
            p if isinstance(p, FaultPhase) else FaultPhase.from_dict(p)
            for p in self.phases
        )
        object.__setattr__(self, "phases", phases)
        for prev, cur in zip(phases, phases[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"phase windows must be sorted and non-overlapping: "
                    f"[{prev.start}, {prev.end}) then [{cur.start}, {cur.end})"
                )
        for name in self.RATE_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1], got {v!r}")
        if self.delay_cycles < 0:
            raise ValueError("delay_cycles must be >= 0")
        if self.burst_every < 0 or self.burst_len < 0:
            raise ValueError("burst windows must be >= 0")
        if self.burst_mult < 0:
            raise ValueError("burst_mult must be >= 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.rto < 0:
            raise ValueError("rto must be >= 0")
        if self.channel is not None and self.channel not in CHANNELS:
            raise ValueError(
                f"channel must be one of {CHANNELS} or None, got {self.channel!r}"
            )

    # -- predicates -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when the plan can actually perturb a run.

        A zero-rate plan is inert: the machine then uses the plain
        fabric, so cycle counts and traffic are bit-identical to a
        no-faults run (the zero-overhead-off guarantee, mirroring the
        tracer's ``if tracer is not None`` pattern).  A phase script
        whose every window is also zero-rate is equally inert — scripted
        calm over a calm link changes nothing.
        """
        return any(
            getattr(self, name) > 0.0 for name in self.RATE_FIELDS
        ) or any(p.active for p in self.phases)

    def rates_at(self, t: int) -> Tuple[float, float, float, float]:
        """Effective (drop, dup, delay, reorder) rates at cycle ``t``.

        Inside a phase window the phase's rates apply; outside every
        window the base rates do.  Burst multiplication (``in_burst``)
        is applied by the injector on top of whichever set is live.
        """
        for p in self.phases:
            if p.start > t:
                break  # sorted: no later phase can cover t
            if t < p.end:
                return (p.drop, p.dup, p.delay, p.reorder)
        return (self.drop, self.dup, self.delay, self.reorder)

    def matches(self, src: int, dst: int, channel: str) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.channel is None or self.channel == channel)
        )

    def in_burst(self, t: int) -> bool:
        return self.burst_every > 0 and (t % self.burst_every) < self.burst_len

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        # A phase-free plan serializes exactly as it did before phases
        # existed: old stored plans round-trip, and the spec fingerprint
        # of every pre-existing faulted experiment is unchanged.
        if not self.phases:
            del d["phases"]
        else:
            d["phases"] = [p.to_dict() for p in self.phases]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI mini-language: ``drop=0.02,dup=0.02,delay=0.05``.

        Keys are :class:`FaultPlan` field names; values are coerced to
        the field's type (``channel`` stays a string).
        """
        d: Dict[str, Any] = {}
        types = {f.name: f.type for f in fields(cls)}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fault spec {part!r} (expected key=value)")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key == "phases":
                raise ValueError(
                    "phase scripts cannot be written in the CLI "
                    "mini-language; use a scenario JSON document "
                    "(repro scenarios) instead"
                )
            if key not in types:
                raise ValueError(
                    f"unknown fault field {key!r} "
                    f"(expected one of {sorted(types)})"
                )
            raw = raw.strip()
            if key == "channel":
                d[key] = raw
            elif key in ("src", "dst"):
                d[key] = int(raw)
            elif key in ("drop", "dup", "delay", "reorder", "burst_mult"):
                d[key] = float(raw)
            else:
                d[key] = int(raw)
        return cls(**d)

    @classmethod
    def coerce(cls, obj) -> Optional["FaultPlan"]:
        """Normalize the accepted spellings: None, plan, dict, CLI string."""
        if obj is None or isinstance(obj, cls):
            return obj
        if isinstance(obj, dict):
            return cls.from_dict(obj)
        if isinstance(obj, str):
            return cls.parse(obj)
        raise TypeError(f"cannot build a FaultPlan from {type(obj).__name__}")

    def label(self) -> str:
        """Compact human-readable tag for logs and spec labels."""
        parts = [
            f"{name}={getattr(self, name):g}"
            for name in self.RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        if self.phases:
            parts.append(f"phases={len(self.phases)}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ",".join(parts) or "inert"
