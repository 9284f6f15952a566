"""Reliable delivery over a faulty interconnect.

:class:`ReliableFabric` is the fabric the machine uses when an *active*
:class:`~repro.faults.plan.FaultPlan` is attached.  It keeps the plain
fabric's timing model (endpoint contention at the NICs, per-hop transit,
payload serialization) and layers a NIC-boundary recovery protocol on
top, so every coherence protocol (sc/erc/lrc/lrc-ext) survives injected
faults *unmodified*:

* **Sequencing.**  Every (src, dst, channel) pair is an independent
  ordered stream; each logical message gets the stream's next sequence
  number when it enters the sender NIC.
* **Dedup + reordering buffer.**  The receiver delivers a stream's
  messages to the protocol strictly in sequence order, exactly once:
  duplicates (injected, or retransmits of already-delivered messages)
  are counted and discarded; out-of-order arrivals (delay jitter) are
  stashed until the gap fills.  This restores precisely the delivery
  semantics the protocols already rely on from the plain fabric —
  per-channel FIFO, exactly-once — while faults perturb only *timing*.
* **Ack/retransmit.**  Every arrival is answered with a cumulative ack
  (all sequence numbers below the ack value are received).  The sender
  retransmits unacked messages on a timeout with exponential backoff;
  a message that exhausts ``plan.max_retries`` raises a structured
  :class:`~repro.faults.watchdog.SimulationStall` instead of looping
  forever.  Acks travel the same faulty network (droppable, delayable)
  — loss of an ack just causes a retransmit that the receiver dedups.

Accounting: logical traffic is recorded once per ``send`` under the
message's own type, so paper-figure bandwidth numbers keep their
meaning; recovery overhead is visible separately as ``RD_ACK`` messages
and the ``retransmits``/``dup_drops``/``*_injected`` counters on
:class:`~repro.network.messages.MessageStats`.  When faults are off this
module is never imported — the machine uses the plain fabric and pays
zero overhead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.config import SystemConfig
from repro.engine.simulator import Simulator
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import SimulationStall
from repro.network.fabric import Fabric
from repro.network.messages import DATA_BEARING, MsgType

#: Cap on the retransmit backoff exponent (rto << 6 = 64x the base).
_BACKOFF_CAP = 6

#: A duplicate copy trails the original by this many cycles.
_DUP_GAP = 1


class _Pending:
    """One unacked logical message at the sender."""

    __slots__ = ("mtype", "size", "handler", "args", "attempts")

    def __init__(self, mtype: MsgType, size: int, handler: Callable, args: tuple):
        self.mtype = mtype
        self.size = size
        self.handler = handler
        self.args = args
        self.attempts = 0  # completed transmissions beyond the first


class _SendChannel:
    """Sender-side state of one (src, dst, channel) stream."""

    __slots__ = ("next_seq", "pending")

    def __init__(self) -> None:
        self.next_seq = 0
        self.pending: Dict[int, _Pending] = {}


class _RecvChannel:
    """Receiver-side state of one (src, dst, channel) stream."""

    __slots__ = ("expected", "stash")

    def __init__(self) -> None:
        self.expected = 0
        self.stash: Dict[int, _Pending] = {}


class ReliableFabric(Fabric):
    """The plain fabric plus fault injection and reliable delivery."""

    def __init__(self, config: SystemConfig, sim: Simulator, plan: FaultPlan) -> None:
        super().__init__(config, sim)
        self.plan = plan
        self.injector = FaultInjector(plan)
        # Base retransmit timeout: a generous multiple of the worst-case
        # uncontended round trip (max-hop transit both ways plus data
        # serialization at both endpoints), unless the plan pins one.
        w, h = config.mesh_dims
        max_hops = max(1, (w - 1) + (h - 1))
        base_rtt = 2 * (
            config.hop_latency * max_hops + config.nic_occupancy(config.line_size)
        )
        self.rto = plan.rto if plan.rto > 0 else 4 * base_rtt
        self.max_retries = plan.max_retries
        self._send_ch: Dict[Tuple[int, int, str], _SendChannel] = {}
        self._recv_ch: Dict[Tuple[int, int, str], _RecvChannel] = {}

    # -- the public send hook --------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        mtype: MsgType,
        t: int,
        handler: Callable,
        *args: Any,
        size: int = -1,
    ) -> int:
        """Sequence, transmit (under fault decisions), and arm recovery.

        Returns the *estimated* fault-free delivery time — with faults
        active the true delivery time is unknowable at send time (no
        call site consumes the value for correctness; it exists for
        bookkeeping parity with the plain fabric).
        """
        if size < 0:
            size = self._line if mtype in DATA_BEARING else 0
        if src == dst:
            # Local hand-off never crosses the network: no faults.
            self.stats.record(mtype, size, 0)
            if self.tracer is not None:
                self.tracer.emit(
                    "msg", src, t=t, dst=dst, type=mtype.name, size=size,
                    arrival=t,
                )
            self.sim.at(t, handler, t, *args)
            return t
        # Logical traffic is recorded exactly once, here; retransmits
        # and acks are accounted separately so bandwidth figures keep
        # meaning "messages the protocol asked for".
        self.stats.record(mtype, size, self.config.hops(src, dst))
        ch = "data" if size else "ctl"
        key = (src, dst, ch)
        sc = self._send_ch.get(key)
        if sc is None:
            sc = self._send_ch[key] = _SendChannel()
        seq = sc.next_seq
        sc.next_seq += 1
        entry = _Pending(mtype, size, handler, args)
        sc.pending[seq] = entry
        if self.tracer is not None:
            self.tracer.emit(
                "msg", src, t=t, dst=dst, type=mtype.name, size=size,
                seq=seq, ch=ch,
            )
        return self._transmit(key, seq, entry, t)

    # -- sender side -----------------------------------------------------------

    def _transmit(self, key: Tuple[int, int, str], seq: int, entry: _Pending, t: int) -> int:
        src, dst, ch = key
        size = entry.size
        occ = self.occupancy(size)
        hops = self.config.hops(src, dst)
        if entry.attempts:
            self.stats.retransmits += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "fault", src, t=t, dst=dst, seq=seq, ch=ch,
                    what="retransmit", attempt=entry.attempts,
                )
        out = self.data_out if size else self.ctl_out
        start = self._book(out, src, t, occ)
        arrival = start + self._hop_lat * hops + (occ if size else 0)
        dec = self.injector.decide(src, dst, ch, t)
        if dec.drop:
            self.stats.drops_injected += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "fault", src, t=t, dst=dst, seq=seq, ch=ch, what="drop",
                    type=entry.mtype.name,
                )
        else:
            if dec.extra:
                self.stats.delays_injected += 1
            # Physical arrivals ride the canonical remote lane (keyed by
            # the sender's send counter), so receive-side processing
            # order never depends on the order the sends executed in.
            sseq = self._sseq[src]
            self._sseq[src] = sseq + 1
            self.sim.deliver_remote(
                arrival + dec.extra, src, sseq,
                self._phys_arrive, (key, seq, entry),
            )
            if dec.dup:
                self.stats.dups_injected += 1
                sseq = self._sseq[src]
                self._sseq[src] = sseq + 1
                self.sim.deliver_remote(
                    arrival + dec.extra + _DUP_GAP, src, sseq,
                    self._phys_arrive, (key, seq, entry),
                )
        rto = self.rto << min(entry.attempts, _BACKOFF_CAP)
        self.sim.at(t + rto, self._check_timeout, key, seq)
        return arrival

    def _check_timeout(self, key: Tuple[int, int, str], seq: int) -> None:
        sc = self._send_ch.get(key)
        entry = sc.pending.get(seq) if sc is not None else None
        if entry is None:
            return  # acked since the timer was armed
        entry.attempts += 1
        if entry.attempts > self.max_retries:
            window = []
            if self.tracer is not None:
                window = [
                    self.tracer.format_event(e) for e in self.tracer.tail(32)
                ]
            src, dst, ch = key
            raise SimulationStall(
                f"reliable delivery gave up: {entry.mtype.name} "
                f"{src}->{dst}/{ch} seq={seq} unacked after "
                f"{self.max_retries} retransmits (t={self.sim.now})",
                kind="retransmit-cap",
                cycle=self.sim.now,
                window=window,
            )
        self._transmit(key, seq, entry, self.sim.now)

    def _on_ack(self, key: Tuple[int, int, str], upto: int) -> None:
        sc = self._send_ch.get(key)
        if sc is None:
            return
        for seq in [s for s in sc.pending if s < upto]:
            del sc.pending[seq]

    # -- receiver side ---------------------------------------------------------

    def _phys_arrive(self, key: Tuple[int, int, str], seq: int, entry: _Pending) -> None:
        """The message's tail reached the destination: contend for the NIC.

        Like the plain fabric's arrival phase, the receive-NIC
        reservation happens here, in canonical arrival order — which
        faults genuinely reorder (delay jitter), unlike fault-free
        traffic.
        """
        _src, dst, _ch = key
        now = self.sim.now
        deliver = self._book(
            self.data_in if entry.size else self.ctl_in, dst, now,
            self.occupancy(entry.size),
        )
        if deliver == now:
            self._deliver(key, seq, entry)
        else:
            self.sim.at(deliver, self._deliver, key, seq, entry)

    def _deliver(self, key: Tuple[int, int, str], seq: int, entry: _Pending) -> None:
        rc = self._recv_ch.get(key)
        if rc is None:
            rc = self._recv_ch[key] = _RecvChannel()
        now = self.sim.now
        if seq < rc.expected or seq in rc.stash:
            # Injected duplicate, or a retransmit of something already
            # received (e.g. because its ack was lost): discard, re-ack.
            self.stats.dup_drops += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "fault", key[1], t=now, src=key[0], seq=seq, ch=key[2],
                    what="dup-drop",
                )
            self._send_ack(key, rc)
            return
        rc.stash[seq] = entry
        while rc.expected in rc.stash:
            e = rc.stash.pop(rc.expected)
            rc.expected += 1
            # Hand off to the protocol as its own event, preserving the
            # plain fabric's handler(deliver_time, *args) convention.
            self.sim.at(now, e.handler, now, *e.args)
        self._send_ack(key, rc)

    def _send_ack(self, key: Tuple[int, int, str], rc: _RecvChannel) -> None:
        """Cumulative ack dst -> src; itself subject to drop/delay."""
        src, dst, _ch = key
        now = self.sim.now
        upto = rc.expected
        hops = self.config.hops(dst, src)
        self.stats.record(MsgType.RD_ACK, 0, hops)
        start = self._book(self.ctl_out, dst, now, self._ctl_occ)
        arrival = start + self._hop_lat * hops
        dec = self.injector.decide(dst, src, "ctl", now)
        if dec.drop:
            self.stats.drops_injected += 1
            return
        # Duplicating an idempotent cumulative ack is pointless; only
        # loss and delay apply.
        if dec.extra:
            self.stats.delays_injected += 1
        sseq = self._sseq[dst]
        self._sseq[dst] = sseq + 1
        self.sim.deliver_remote(
            arrival + dec.extra, dst, sseq, self._phys_ack, (key, upto)
        )

    def _phys_ack(self, key: Tuple[int, int, str], upto: int) -> None:
        now = self.sim.now
        deliver = self._book(self.ctl_in, key[0], now, self._ctl_occ)
        if deliver == now:
            self._on_ack(key, upto)
        else:
            self.sim.at(deliver, self._on_ack, key, upto)

    # -- introspection ---------------------------------------------------------

    def unacked(self) -> int:
        """Logical messages still awaiting an ack (test/debug hook)."""
        return sum(len(sc.pending) for sc in self._send_ch.values())
