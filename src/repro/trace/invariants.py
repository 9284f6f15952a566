"""Runtime coherence-invariant checker.

The four protocols encode subtle distributed state machines (Figure 1's
Uncached/Shared/Dirty/Weak transitions, ack collection, multi-writer
merging); a protocol bug otherwise surfaces only as a silently wrong
cycle count.  The checker is the runtime-sanitizer equivalent: it
validates structural invariants at configurable points and fails fast
with an :class:`InvariantViolation` naming the node/block/state involved
(and, when a tracer is attached, a ``violation`` trace event whose
sequence number anchors the event window around the failure).

Checkpoints (``level``):

* ``"end"``   — one sweep after the event queue drains;
* ``"sync"``  — additionally at every release-continuation firing and
  after every acquire-side invalidation pass (the protocol's commit
  points) — the default;
* ``"event"`` — additionally a full scan after *every* simulator event
  (paranoid mode for pinpointing the first bad transition; slow).

Invariants checked mid-run (must hold at any instant):

* ``out_count >= 0`` on every node;
* write/coalescing buffers are internally consistent (FIFO order and
  word map agree, occupancy within capacity);
* lazy directory entries: ``writers ⊆ sharers``, members in range, the
  UNCACHED/SHARED/DIRTY/WEAK state matches the sharer/writer sets,
  ``pending_acks >= 0``, and waiting requesters imply an open ack
  collection;
* MSI directory entries: state DIRTY iff an owner is recorded, the owner
  is a sharer, members in range;
* Tardis entries: ``0 <= wts <= rts``; per node, the logical clock
  ``pts`` is monotone and the lease table mirrors cache residency.

At sync points:

* when a release's continuation fires: the write buffer and coalescing
  buffer are empty and no transaction is outstanding;
* after acquire invalidation processing: ``pending_inval`` is empty
  (tardis: every surviving resident lease covers the new ``pts`` — the
  relaxed-mode lease-validity obligation).

At end of run, additionally:

* every processor finished and every node's ``out_count`` is balanced;
* write buffers drained, no write fetch or background flush in flight;
* every ack collection drained (``pending_acks == 0``) with no stranded
  ``pending_requesters``; no open home-side transaction (``home_busy`` /
  ``home_queue`` / ``msi_pending``);
* directory contents agree with the actual per-node cache states
  (sharers = nodes caching the block; writers/owner hold it read-write,
  modulo lrc-ext notices still deferred on nodes that never released);
* lock/barrier/flag manager state is quiescent (no held locks, no queued
  or stranded waiters).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cache.state import INVALID, RO, RW
from repro.directory.lazy import LazyDirectory
from repro.directory.timestamp import TardisDirectory, TardisEntry
from repro.directory.entry import (
    DIRTY,
    LazyEntry,
    MSIEntry,
    SHARED,
    UNCACHED,
    WEAK,
    dir_state_name,
)

LEVELS = ("end", "sync", "event")


class InvariantViolation(RuntimeError):
    """A coherence invariant does not hold.

    ``seq`` is the sequence number of the ``violation`` event the checker
    emitted into the attached tracer (``None`` without a tracer); pass it
    to :meth:`repro.trace.tracer.Tracer.window` for surrounding context.
    """

    def __init__(self, message: str, seq: Optional[int] = None) -> None:
        super().__init__(message)
        self.seq = seq


class InvariantChecker:
    """Validates protocol/machine state; raises on the first violation."""

    def __init__(self, machine, tracer=None, level: str = "sync") -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown check level {level!r} (expected one of {LEVELS})")
        self.machine = machine
        self.tracer = tracer
        self.level = level
        self.checks_run = 0
        self._last_pts = {}  # tardis: node id -> last observed clock

    # -- failure path ----------------------------------------------------------

    def _fail(self, node_id: int, message: str) -> None:
        seq = None
        if self.tracer is not None:
            seq = self.tracer.emit("violation", node_id, message=message)
        raise InvariantViolation(message, seq=seq)

    # -- checkpoint hooks --------------------------------------------------------

    def on_release_fire(self, node, t: int) -> None:
        """A release continuation is about to run: previous writes must
        have globally performed."""
        if node.wb is not None and not node.wb.empty:
            self._fail(
                node.id,
                f"node {node.id}: release fired at t={t} with "
                f"{len(node.wb)} write-buffer entries pending",
            )
        if node.cbuf is not None and not node.cbuf.empty:
            self._fail(
                node.id,
                f"node {node.id}: release fired at t={t} with "
                f"{len(node.cbuf)} coalescing-buffer entries unflushed",
            )
        if node.out_count != 0:
            self._fail(
                node.id,
                f"node {node.id}: release fired at t={t} with "
                f"{node.out_count} transactions outstanding",
            )
        if self.machine.protocol.timestamp_coherence and node.ts_dirty:
            self._fail(
                node.id,
                f"node {node.id}: release fired at t={t} with unbumped "
                f"dirty blocks {sorted(node.ts_dirty)[:8]}",
            )
        if self.level in ("sync", "event"):
            self.scan()

    def on_acquire_done(self, node, t: int) -> None:
        """Acquire-side invalidation processing completed: every noticed
        line must have been dealt with."""
        if node.pending_inval:
            self._fail(
                node.id,
                f"node {node.id}: acquire completed at t={t} with pending "
                f"invalidations unprocessed: {sorted(node.pending_inval)[:8]}",
            )
        if self.machine.protocol.timestamp_coherence:
            stale = [b for b, l in node.ts_lease.items() if l < node.pts]
            if stale:
                self._fail(
                    node.id,
                    f"node {node.id}: acquire completed at t={t} with expired "
                    f"leases still resident (pts={node.pts}): "
                    f"{[(b, node.ts_lease[b]) for b in sorted(stale)[:8]]}",
                )
        if self.level in ("sync", "event"):
            self.scan()

    def on_event(self) -> None:
        """Per-event hook (installed as the simulator's post-event hook)."""
        self.scan()

    # -- structural scan (valid at any instant) ----------------------------------

    def scan(self) -> None:
        """Check every invariant that must hold between any two events."""
        self.checks_run += 1
        n = self.machine.config.n_procs
        tardis = self.machine.protocol.timestamp_coherence
        for node in self.machine.nodes:
            if node.out_count < 0:
                self._fail(node.id, f"node {node.id}: negative out_count {node.out_count}")
            self._check_buffer(node.id, node.wb, "write buffer")
            self._check_buffer(node.id, node.cbuf, "coalescing buffer")
            if node.wt_drain_busy < 0:
                self._fail(
                    node.id,
                    f"node {node.id}: negative background-flush count "
                    f"{node.wt_drain_busy}",
                )
            for block, entry in node.directory.entries.items():
                if isinstance(entry, LazyEntry):
                    self._check_lazy_entry(node.id, block, entry, n)
                elif isinstance(entry, TardisEntry):
                    self._check_tardis_entry(node.id, block, entry)
                else:
                    self._check_msi_entry(node.id, block, entry, n)
            if tardis:
                self._check_tardis_node(node)

    def _check_buffer(self, node_id: int, buf, what: str) -> None:
        if buf is None:
            return
        if len(buf.order) > buf.capacity:
            self._fail(
                node_id,
                f"node {node_id}: {what} over capacity "
                f"({len(buf.order)} > {buf.capacity})",
            )
        # Most buffers are empty at a scan; two empty containers agree.
        if not buf.order and not buf.words:
            return
        if set(buf.order) != set(buf.words):
            self._fail(
                node_id,
                f"node {node_id}: {what} FIFO order and word map disagree "
                f"(order={list(buf.order)}, words={sorted(buf.words)})",
            )

    def _check_lazy_entry(self, home: int, block: int, e: LazyEntry, n: int) -> None:
        if not e.writers <= e.sharers:
            self._fail(
                home,
                f"home {home}, block {block:#x}: writers {sorted(e.writers)} "
                f"not a subset of sharers {sorted(e.sharers)}",
            )
        if not all(0 <= s < n for s in e.sharers):
            self._fail(
                home,
                f"home {home}, block {block:#x}: out-of-range sharer in "
                f"{sorted(e.sharers)}",
            )
        derived = _derive_lazy_state(e)
        if e.state != derived:
            self._fail(
                home,
                f"home {home}, block {block:#x}: state "
                f"{dir_state_name(e.state)} does not match sharers/writers "
                f"(sharers={sorted(e.sharers)}, writers={sorted(e.writers)} "
                f"imply {dir_state_name(derived)})",
            )
        if e.pending_acks < 0:
            self._fail(
                home,
                f"home {home}, block {block:#x}: negative pending_acks "
                f"{e.pending_acks}",
            )
        if e.pending_requesters and e.pending_acks == 0:
            self._fail(
                home,
                f"home {home}, block {block:#x}: requesters "
                f"{[r for r, _ in e.pending_requesters]} waiting on a "
                f"closed ack collection",
            )

    def _check_tardis_entry(self, home: int, block: int, e: TardisEntry) -> None:
        if not 0 <= e.wts <= e.rts:
            self._fail(
                home,
                f"home {home}, block {block:#x}: timestamp order violated "
                f"(wts={e.wts}, rts={e.rts})",
            )

    def _check_tardis_node(self, node) -> None:
        last = self._last_pts.get(node.id, 0)
        if node.pts < last:
            self._fail(
                node.id,
                f"node {node.id}: logical clock moved backwards "
                f"({last} -> {node.pts})",
            )
        self._last_pts[node.id] = node.pts
        # Leases and valid lines are equal sets when every leased block
        # is resident in its own set and the counts agree: a loop over the
        # leases plus one C-level count, not a rebuilt resident set.
        cache = node.cache
        tags, states, mask = cache.tags, cache.states, cache.set_mask
        leases = node.ts_lease
        if len(leases) == len(states) - states.count(INVALID):
            for b in leases:
                s = b & mask
                if tags[s] != b or not states[s]:
                    break
            else:
                return
        resident = set(cache.resident_blocks())
        leased = set(leases)
        self._fail(
            node.id,
            f"node {node.id}: lease table disagrees with cache residency "
            f"(unleased resident={sorted(resident - leased)[:8]}, "
            f"leased absent={sorted(leased - resident)[:8]})",
        )

    def _check_msi_entry(self, home: int, block: int, e: MSIEntry, n: int) -> None:
        if (e.state == DIRTY) != (e.owner is not None):
            self._fail(
                home,
                f"home {home}, block {block:#x}: state "
                f"{dir_state_name(e.state)} inconsistent with owner {e.owner}",
            )
        if e.owner is not None and e.owner not in e.sharers:
            self._fail(
                home,
                f"home {home}, block {block:#x}: owner {e.owner} missing "
                f"from sharers {sorted(e.sharers)}",
            )
        if not all(0 <= s < n for s in e.sharers):
            self._fail(
                home,
                f"home {home}, block {block:#x}: out-of-range sharer in "
                f"{sorted(e.sharers)}",
            )

    # -- end of run --------------------------------------------------------------

    def end_of_run(self) -> None:
        """Full sweep once the event queue has drained."""
        self.scan()
        m = self.machine
        for node in m.nodes:
            nid = node.id
            if not node.proc.done:
                self._fail(nid, f"node {nid}: processor never finished")
            if node.out_count != 0:
                self._fail(
                    nid,
                    f"node {nid}: {node.out_count} transactions still "
                    f"outstanding at end of run",
                )
            if node.wb is not None and not node.wb.empty:
                self._fail(
                    nid,
                    f"node {nid}: write buffer holds "
                    f"{list(node.wb.order)} at end of run",
                )
            if node.fill_pending or node.fill_fixup:
                self._fail(
                    nid,
                    f"node {nid}: fills still in flight at end of run "
                    f"(pending={sorted(node.fill_pending)}, "
                    f"fixups={sorted(node.fill_fixup)})",
                )
            if node.wb_fetching:
                self._fail(
                    nid,
                    f"node {nid}: write fetches still in flight for blocks "
                    f"{sorted(node.wb_fetching)}",
                )
            if node.wt_drain_busy:
                self._fail(
                    nid,
                    f"node {nid}: {node.wt_drain_busy} background flushes "
                    f"still in flight",
                )
            if node.home_busy or any(node.home_queue.values()):
                self._fail(
                    nid,
                    f"home {nid}: open transactions at end of run "
                    f"(busy={sorted(node.home_busy)}, "
                    f"queued={sorted(b for b, q in node.home_queue.items() if q)})",
                )
            if node.msi_pending:
                self._fail(
                    nid,
                    f"home {nid}: uncollected invalidation acks for blocks "
                    f"{sorted(node.msi_pending)}",
                )
            for block, e in node.directory.entries.items():
                if isinstance(e, LazyEntry) and (e.pending_acks or e.pending_requesters):
                    self._fail(
                        nid,
                        f"home {nid}, block {block:#x}: ack collection never "
                        f"drained (pending_acks={e.pending_acks}, requesters="
                        f"{[r for r, _ in e.pending_requesters]})",
                    )
            self._check_sync_quiescent(node)
        self._check_directory_agreement()

    def _check_sync_quiescent(self, node) -> None:
        for key, st in node.lock_state.items():
            if isinstance(key, tuple):  # flag: ("f", flag_id)
                if st["waiters"]:
                    self._fail(
                        node.id,
                        f"home {node.id}: flag {key[1]} still has waiters "
                        f"{list(st['waiters'])} at end of run",
                    )
            else:
                if st["held"]:
                    self._fail(
                        node.id,
                        f"home {node.id}: lock {key} still held at end of run",
                    )
                if st["queue"]:
                    self._fail(
                        node.id,
                        f"home {node.id}: lock {key} still has queued "
                        f"requesters {list(st['queue'])} at end of run",
                    )
        for bid, st in node.barrier_state.items():
            if st["waiters"]:
                self._fail(
                    node.id,
                    f"home {node.id}: barrier {bid} still has waiters "
                    f"{list(st['waiters'])} at end of run",
                )

    def _check_directory_agreement(self) -> None:
        """Directories and caches must tell the same story at quiescence."""
        m = self.machine
        # Per-node view: every resident line must be registered at its home.
        for node in m.nodes:
            for block in node.cache.resident_blocks():
                state = node.cache.lookup(block)
                home = m.nodes[m.home_of(block)]
                e = home.directory.entries.get(block)
                if isinstance(home.directory, TardisDirectory):
                    # Tardis homes track no sharers; the per-node story is
                    # the lease table, which scan() already reconciled with
                    # residency.  A resident block must have been fetched,
                    # so its home entry exists with a granted lease.
                    if e is None or e.rts == 0:
                        self._fail(
                            node.id,
                            f"node {node.id} caches block {block:#x} but home "
                            f"{home.id} never granted a lease for it",
                        )
                elif isinstance(home.directory, LazyDirectory):
                    if e is None or node.id not in e.sharers:
                        self._fail(
                            node.id,
                            f"node {node.id} caches block {block:#x} "
                            f"({'RW' if state == RW else 'RO'}) but home "
                            f"{home.id} does not list it as a sharer",
                        )
                    if (
                        state == RW
                        and node.id not in e.writers
                        and block not in node.deferred_notices
                    ):
                        self._fail(
                            node.id,
                            f"node {node.id} holds block {block:#x} read-write "
                            f"but home {home.id} does not know it writes "
                            f"(writers={sorted(e.writers)}, no deferred notice)",
                        )
                else:
                    if e is None:
                        self._fail(
                            node.id,
                            f"node {node.id} caches block {block:#x} but home "
                            f"{home.id} has no directory entry",
                        )
                    elif state == RW and e.owner != node.id:
                        self._fail(
                            node.id,
                            f"node {node.id} holds block {block:#x} read-write "
                            f"but home {home.id} records owner {e.owner}",
                        )
                    elif state == RO and node.id not in e.sharers:
                        self._fail(
                            node.id,
                            f"node {node.id} caches block {block:#x} read-only "
                            f"but home {home.id} does not list it as a sharer",
                        )
        # Home view: every registered sharer must actually cache the block.
        for home in m.nodes:
            for block, e in home.directory.entries.items():
                if isinstance(e, TardisEntry):
                    continue  # no sharer bookkeeping to reconcile
                for s in e.sharers:
                    if m.nodes[s].cache.lookup(block) == INVALID:
                        self._fail(
                            home.id,
                            f"home {home.id} lists node {s} as a sharer of "
                            f"block {block:#x}, but node {s} does not cache it",
                        )
                if isinstance(e, MSIEntry) and e.owner is not None:
                    if m.nodes[e.owner].cache.lookup(block) != RW:
                        self._fail(
                            home.id,
                            f"home {home.id} records node {e.owner} as dirty "
                            f"owner of block {block:#x}, but the node does not "
                            f"hold it read-write",
                        )


def _derive_lazy_state(e: LazyEntry) -> int:
    """The Figure 1 state implied by the sharer/writer sets."""
    if not e.sharers:
        return UNCACHED
    if not e.writers:
        return SHARED
    if len(e.sharers) == 1:
        return DIRTY
    return WEAK
