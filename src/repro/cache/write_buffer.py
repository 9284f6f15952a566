"""The CPU write buffer.

Section 4.2: "The relaxed consistency protocols use a 4-entry write
buffer which allows reads to bypass writes and coalesces writes to the
same cache line."

An entry is a cache block plus the set of word offsets written to it.
Entries retire in FIFO order; the *protocol* decides when the head may
retire (eager: on ownership; lazy: as soon as the line is present).  The
CPU stalls only when it needs a new entry and the buffer is full — that
stall is what the "write buffer stall" bucket in Figures 5/7/9 measures.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set


class WriteBuffer:
    """FIFO, line-coalescing write buffer."""

    __slots__ = ("capacity", "order", "words", "tracer", "owner")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self.order: Deque[int] = deque()      # FIFO of blocks
        self.words: Dict[int, Set[int]] = {}  # block -> word offsets
        self.tracer = None   # set by Machine when event tracing is on
        self.owner = -1      # owning node id (tracing only)

    def __len__(self) -> int:
        return len(self.order)

    @property
    def empty(self) -> bool:
        return not self.order

    @property
    def full(self) -> bool:
        return len(self.order) >= self.capacity

    def contains(self, block: int) -> bool:
        """True if a pending write to ``block`` is buffered.

        Reads consult this to bypass/forward from the buffer: a read of a
        line with a buffered write is satisfied locally.
        """
        return block in self.words

    def add(self, block: int, word: int) -> bool:
        """Buffer a write.  Returns False if a new entry was needed but
        the buffer is full (caller must stall and retry)."""
        ws = self.words.get(block)
        if ws is not None:
            ws.add(word)
            return True
        if len(self.order) >= self.capacity:
            if self.tracer is not None:
                self.tracer.emit("wb_full", self.owner, block=block)
            return False
        self.words[block] = {word}
        self.order.append(block)
        if self.tracer is not None:
            self.tracer.emit("wb_add", self.owner, block=block, depth=len(self.order))
        return True

    def head(self) -> Optional[int]:
        return self.order[0] if self.order else None

    def retire_head(self) -> Set[int]:
        """Remove the head entry; return its written word offsets."""
        block = self.order.popleft()
        if self.tracer is not None:
            self.tracer.emit("wb_retire", self.owner, block=block, depth=len(self.order))
        return self.words.pop(block)
