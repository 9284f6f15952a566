"""Message taxonomy and traffic accounting.

The protocols exchange a small set of message types.  Control messages
carry only a header (their transit cost is hop latency alone, matching
the paper's worked example); data messages additionally serialize a
cache line through the network and the endpoints.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List


class MsgType(IntEnum):
    """All message kinds used by the four protocols."""

    READ_REQ = 0          # read miss request to home
    WRITE_REQ = 1         # write miss / upgrade / write-notice request to home
    DATA_REPLY = 2        # home -> requester, carries a line
    ACK = 3               # generic acknowledgment
    INVALIDATE = 4        # eager: home -> sharer, invalidate now
    WRITE_NOTICE = 5      # lazy: home -> sharer, invalidate at next acquire
    FORWARD = 6           # eager: home -> dirty owner, forward request
    OWNER_DATA = 7        # eager: owner -> requester, 3-hop data leg
    WRITEBACK = 8         # dirty data back to home (eviction / sharing wb)
    WRITE_THROUGH = 9     # lazy: coalescing-buffer flush to home memory
    EVICT_NOTICE = 10     # replacement hint to home (no data)
    RELINQUISH = 11       # lazy: "no longer caching" after acquire-invalidate
    LOCK_REQ = 12
    LOCK_GRANT = 13
    LOCK_RELEASE = 14
    BARRIER_ARRIVE = 15
    BARRIER_EXIT = 16
    FLAG_SET = 17         # producer: release semantics done, set the flag
    FLAG_WAIT = 18        # consumer: block until the flag is set
    FLAG_GRANT = 19       # home -> consumer, flag observed set
    TS_BUMP = 20          # tardis: advance a block's write timestamp at home


# The members as module constants (``from repro.network.messages import
# ACK``), the way :mod:`re` exports its flags.  Send sites name a type
# on every message, and on CPython 3.11 a module-global load is several
# times cheaper than ``MsgType.ACK``, which goes through the enum
# metaclass's ``__getattr__`` hook.
globals().update(MsgType.__members__)


#: Message types that carry a full cache line of payload.
DATA_BEARING = frozenset(
    {MsgType.DATA_REPLY, MsgType.OWNER_DATA, MsgType.WRITEBACK}
)


#: The keys of the serialized ``"reliability"`` block.  Only
#: ``delays_injected`` still counts anything (messages the jitter fabric
#: delayed, :mod:`repro.network.jitter`); the other four belonged to a
#: retired lossy-network layer and serialize as fixed zeros, so stored
#: results and their digests keep their layout.
RELIABILITY_COUNTERS = (
    "retransmits",
    "dup_drops",
    "drops_injected",
    "dups_injected",
    "delays_injected",
)


class MessageStats:
    """Global traffic counters, by message type.

    ``count`` and ``bytes`` are flat lists indexed by the ``MsgType``
    int, so the fabric bumps them inline on every send.
    """

    __slots__ = ("count", "bytes", "total_hops", "delays_injected")

    def __init__(self) -> None:
        self.count: List[int] = [0] * len(MsgType)
        self.bytes: List[int] = [0] * len(MsgType)
        self.total_hops: int = 0
        self.delays_injected: int = 0

    def record(self, mtype: MsgType, size: int, hops: int) -> None:
        self.count[mtype] += 1
        self.bytes[mtype] += size
        self.total_hops += hops

    @property
    def total_messages(self) -> int:
        return sum(self.count)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes)

    def _sent(self):
        """``(name, count, bytes)`` of every type sent at least once."""
        return [
            (MsgType(k).name, c, self.bytes[k])
            for k, c in enumerate(self.count)
            if c
        ]

    def as_dict(self) -> dict:
        return {name: (c, b) for name, c, b in self._sent()}

    # -- serialization (result store) -----------------------------------------

    def to_dict(self) -> dict:
        sent = self._sent()
        return {
            "count": {name: c for name, c, _b in sent},
            "bytes": {name: b for name, _c, b in sent},
            "total_hops": self.total_hops,
            "reliability": {
                name: self.delays_injected if name == "delays_injected" else 0
                for name in RELIABILITY_COUNTERS
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MessageStats":
        s = cls()
        for k, v in d["count"].items():
            s.count[MsgType[k]] = v
        for k, v in d["bytes"].items():
            s.bytes[MsgType[k]] = v
        s.total_hops = d["total_hops"]
        # Absent in results stored before the counters existed.
        s.delays_injected = (d.get("reliability") or {}).get("delays_injected", 0)
        return s
