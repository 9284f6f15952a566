"""The lazy directory state machine (Figure 1 of the paper).

Transitions implemented, with the italicized side effects of the figure:

* UNCACHED --read-->  SHARED
* UNCACHED --write--> DIRTY
* SHARED   --read-->  SHARED
* SHARED   --write--> DIRTY   (sole sharer writes) or
*                     WEAK    (other sharers exist: *send notices, collect acks*)
* DIRTY    --read by other--> WEAK   (*send notice to the current writer*)
* DIRTY    --write by other--> WEAK  (*send notice to the current writer*)
* WEAK     --read/write-->    WEAK   (*notify any not-yet-notified sharers*)
* any      --relinquish/evict--> recomputed from remaining sharers/writers
  (WEAK reverts to SHARED once no writer remains, to UNCACHED once no
  sharer remains).

The home node never forwards read requests: with write-through memory is
always current enough (Section 2's correctness argument).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.directory.entry import DIRTY, LazyEntry, SHARED, UNCACHED, WEAK


class LazyReadOutcome(NamedTuple):
    """What the home must do after a read request."""

    state: int                      # new directory state
    weak_for_reader: bool           # reply tells reader to self-invalidate at acquire
    notices_to: List[int]           # writers to notify


class LazyWriteOutcome(NamedTuple):
    """What the home must do after a write request."""

    state: int
    needs_data: bool                # requester had no copy; send the line
    notices_to: List[int]
    await_acks: bool                # requester must wait for home's final ack
    weak_for_writer: bool           # block weak: writer self-invalidates at acquire


#: Outcomes are built with the C-level ``tuple.__new__``: every request
#: makes one, and the generated ``__new__`` would cost a Python frame.
_new = tuple.__new__


class LazyDirectory:
    """Directory slice for one home node under the lazy protocols."""

    __slots__ = ("entries", "tracer", "home")

    def __init__(self) -> None:
        self.entries: Dict[int, LazyEntry] = {}
        self.tracer = None  # set by Machine when event tracing is on
        self.home = -1      # owning home node id (tracing only)

    def entry(self, block: int) -> LazyEntry:
        e = self.entries.get(block)
        if e is None:
            e = LazyEntry()
            self.entries[block] = e
        return e

    def state_of(self, block: int) -> int:
        e = self.entries.get(block)
        return e.state if e is not None else UNCACHED

    # -- request processing -----------------------------------------------------

    def read(self, block: int, reader: int) -> LazyReadOutcome:
        """Process a read request; returns the actions the home must take."""
        e = self.entries.get(block)
        if e is None:
            e = self.entries[block] = LazyEntry()
        old = e.state
        notices: List[int] = []
        if e.state == UNCACHED:
            e.state = SHARED
        elif e.state == SHARED:
            pass
        elif e.state == DIRTY:
            # A read of a dirty block moves it to WEAK and notifies the
            # single current writer (footnote 1 of the paper).  The
            # notice is informational — the sole writer's copy is
            # complete, so it does not schedule an invalidation and the
            # notified bit stays clear: a later *foreign* write must
            # still send this writer a real (invalidating) notice.
            if reader not in e.writers:
                e.state = WEAK
                notices = [w for w in sorted(e.writers) if w not in e.notified]
        # WEAK stays WEAK.
        e.sharers.add(reader)
        # The reader must invalidate at its next acquire only if the block
        # can accumulate *foreign* writes — i.e. someone other than the
        # reader is writing it.  The reply carries the state (standing in
        # for an explicit notice); the home sets the notified bit.
        weak = e.state == WEAK and bool(e.writers - {reader})
        if weak:
            e.notified.add(reader)
        if self.tracer is not None:
            self.tracer.emit(
                "dir_read", self.home, block=block, frm=old, to=e.state,
                reader=reader, notices=notices,
            )
        return _new(LazyReadOutcome, (e.state, weak, notices))

    def write(self, block: int, writer: int, has_copy: bool) -> LazyWriteOutcome:
        """Process a write request (write notice) from ``writer``.

        ``has_copy`` is True when the writer already caches the line
        read-only (upgrade; no data transfer needed).
        """
        e = self.entries.get(block)
        if e is None:
            e = self.entries[block] = LazyEntry()
        notices: List[int] = []
        st = e.state
        old = st
        if st == UNCACHED:
            e.state = DIRTY
        elif st == SHARED:
            others = e.sharers - {writer}
            if others:
                e.state = WEAK
                notices = [s for s in sorted(others) if s not in e.notified]
                e.notified.update(notices)
            else:
                e.state = DIRTY
        elif st == DIRTY:
            if writer not in e.writers:
                e.state = WEAK
                notices = [
                    s
                    for s in sorted(e.sharers)
                    if s != writer and s not in e.notified
                ]
                e.notified.update(notices)
        else:  # WEAK
            notices = [
                s
                for s in sorted(e.sharers)
                if s != writer and s not in e.notified
            ]
            e.notified.update(notices)
        e.sharers.add(writer)
        e.writers.add(writer)
        # A writer only needs to invalidate its own copy at acquires when
        # *another* writer exists (its copy may then lack foreign words
        # that memory has merged).  A sole writer's copy is complete.
        weak_for_writer = e.state == WEAK and len(e.writers) > 1
        if weak_for_writer:
            e.notified.add(writer)
        if self.tracer is not None:
            self.tracer.emit(
                "dir_write", self.home, block=block, frm=old, to=e.state,
                writer=writer, notices=notices,
            )
        return _new(
            LazyWriteOutcome,
            (e.state, not has_copy, notices, bool(notices), weak_for_writer),
        )

    # -- departures ---------------------------------------------------------------

    def remove(self, block: int, node: int) -> int:
        """Node no longer caches ``block`` (acquire-invalidate or eviction).

        Returns the recomputed directory state.  Entries that revert to
        UNCACHED are dropped to bound directory storage.
        """
        e = self.entries.get(block)
        if e is None:
            return UNCACHED
        old = e.state
        e.sharers.discard(node)
        e.writers.discard(node)
        e.notified.discard(node)
        st = e.recompute_state()
        if self.tracer is not None:
            self.tracer.emit(
                "dir_remove", self.home, block=block, frm=old, to=st, actor=node
            )
        if st == UNCACHED and e.pending_acks == 0 and not e.pending_requesters:
            del self.entries[block]
        return st
