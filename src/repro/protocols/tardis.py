"""Tardis timestamp coherence, relaxed to the paper's sync points.

Tardis (Yu & Devadas, PACT'15; Tardis 2.0, PACT'16) orders memory
operations in *logical time* instead of tracking sharers: each block
carries a write timestamp (``wts``) and a read lease (``rts``), each
processor carries a logical clock (``pts``), and coherence is the rule
that a copy may be used only while ``pts <= rts``.  There is no
invalidation fan-out, no ack collection, and no eviction traffic — the
directory stores two integers per block, O(log n) instead of O(n).

This backend keeps LRC's data plane (write-through + coalescing buffer,
so home memory supports word-granularity multi-writer merging) and maps
Tardis 2.0's relaxed mode onto the paper's release/acquire structure:

* **Reads** miss to the home, which renews the lease
  (``rts = max(rts, wts, pts + tardis_lease)``) and replies with
  ``(wts, rts)``; the reader raises ``pts`` to ``wts`` and records the
  lease.  Two hops, always — same argument as LRC's no-forwarding rule.
* **Writes** never serialize at the home.  An RO->RW upgrade is purely
  local (no sharer list exists to notify); a write miss fetches the line
  like a read and installs it RW.  Written blocks accumulate in
  ``ts_dirty``.
* **Releases** drain the coalescing buffer, then send one ``TS_BUMP``
  per dirty block; the home sets ``wts = rts + 1`` (past every lease
  ever granted) and the ack raises the releaser's ``pts`` to the new
  ``wts``.  A bump is held behind the block's in-flight write-throughs
  (the ``wt_waiters`` gate), so the timestamp can never publish a write
  whose data has not reached home memory.  The release continuation
  fires only after every bump is acknowledged.
* **Release-side sync messages** carry the releaser's ``pts`` (the
  ``_sync_ts`` hook in :mod:`repro.protocols.base`); lock/flag/barrier
  managers accumulate the max and hand it to the matching acquire.
* **Acquires** adopt the released timestamp (``pts = max(pts, ts)``)
  and then *self-invalidate* every resident line whose lease is below
  the new ``pts`` — the Tardis 2.0 relaxed mode: lease checks happen
  only at sync points, exactly where LRC processes write notices.  For
  data-race-free programs this is sufficient: any write ordered before
  the acquire was bumped at its release, so ``wts > rts_old`` of every
  stale copy, and ``pts >= wts`` after the acquire expires it.
* **Evictions are silent** — nothing to tell a home that tracks no
  sharers.  A dirty block's bump obligation lives in ``ts_dirty`` and
  survives eviction until the next release.

Because leases are checked only at sync points, cache state never
changes between two hits of one scheduling quantum, which is precisely
the property the CPU's batched span path relies on — lease expiry is
bit-identical between batched and per-element runs for the same reason
LRC's acquire-time invalidations are.
"""

from __future__ import annotations

from repro.cache.state import RO, RW
from repro.directory.timestamp import TardisDirectory
from repro.network.messages import (
    ACK,
    DATA_REPLY,
    READ_REQ,
    TS_BUMP,
    WRITE_REQ,
)
from repro.protocols.lrc import LRCProtocol


class TardisProtocol(LRCProtocol):
    name = "tardis"
    uses_write_buffer = True
    write_through = True
    timestamp_coherence = True
    dir_cost_attr = "lrc_dir_cost"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._lease = self.cfg.tardis_lease

    def make_directory(self):
        return TardisDirectory()

    # ==========================================================================
    # CPU side
    # ==========================================================================

    # cpu_read_miss is inherited: it gates on in-flight write-throughs
    # (read-own-write) and calls _send_read_req, overridden below.

    def _send_read_req(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            READ_REQ,
            t,
            self._h_fetch_req,
            block,
            node.id,
            node.pts,
            False,
        )

    def _announce_upgrade(self, node, t: int, block: int) -> None:
        """Purely local upgrade: there is no sharer list to notify and no
        serializing owner; the write is published by the release-time
        timestamp bump."""

    # _issue_write_fetch is inherited (txn_start + wt_inflight gate); the
    # actual fetch is a read-shaped request that installs RW.

    def _send_write_fetch(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            WRITE_REQ,
            t,
            self._h_fetch_req,
            block,
            node.id,
            node.pts,
            True,
        )

    def cpu_write_words(self, node, t: int, block: int, words) -> None:
        """LRC's buffer write, recording ``block`` as written this epoch
        (``ts_dirty``): the next release bumps its timestamp."""
        late = node.release_cb is not None and block not in node.ts_dirty
        node.ts_dirty.add(block)
        LRCProtocol.cpu_write_words(self, node, t, block, words)
        if late:
            # A release fence already swept ts_dirty (write-buffer entries
            # retiring under the fence land here): bump now, *after* the
            # flush above, so the wt_inflight gate orders bump after data.
            self._issue_bump(node, t, block)
            node.ts_dirty.discard(block)

    # ==========================================================================
    # Release / acquire semantics
    # ==========================================================================

    def _sync_ts(self, node) -> int:
        return node.pts

    def _apply_sync_ts(self, node, ts: int) -> None:
        if ts > node.pts:
            node.pts = ts

    def _pre_release(self, node, t: int, cont) -> None:
        for block, words in node.cbuf.drain():
            self._flush_words(node, t, block, words)
        # Publish this epoch's writes: one bump per dirty block, each
        # gated behind that block's write-through acks.  The release
        # continuation waits for the bump acks via out_count.
        for block in sorted(node.ts_dirty):
            self._issue_bump(node, t, block)
        node.ts_dirty.clear()
        super()._pre_release(node, t, cont)

    def _issue_bump(self, node, t: int, block: int) -> None:
        node.txn_start()
        if node.wt_inflight.get(block):
            # The bump must not overtake our own write-throughs to home:
            # wts may only move past data that is already in memory.
            node.wt_waiters.setdefault(block, []).append("bump")
            return
        self._send_bump(node, t, block)

    def _send_bump(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            TS_BUMP,
            t,
            self._h_ts_bump,
            block,
            node.id,
        )

    def _wt_waiter_resume(self, node, t: int, block: int, kind: str) -> None:
        if kind == "bump":
            self._send_bump(node, t, block)
        else:
            super()._wt_waiter_resume(node, t, block, kind)

    def _h_ts_bump(self, t: int, block: int, src: int) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._dir_cost
        pp.free_at = tp
        wts = home.directory.bump(block)
        self.stats.ts_bumps += 1
        self.fabric.send(
            home.id, src, ACK, tp, self._h_bump_ack, src, wts
        )

    def _h_bump_ack(self, t: int, src: int, wts: int) -> None:
        node = self.nodes[src]
        if wts > node.pts:
            node.pts = wts
        node.txn_done(t)

    def _process_pending_invals(self, node, t: int) -> int:
        """Self-invalidate expired leases (Tardis 2.0 relaxed mode).

        Runs at every acquire-semantics point, after ``pts`` adopted the
        released timestamp: every resident line whose lease is below the
        new clock may be stale and is dropped.  No message is sent — the
        home tracks no sharers.  Returns the completion time."""
        pts = node.pts
        leases = node.ts_lease
        expired = [b for b, lease in leases.items() if lease < pts]
        if not expired:
            return t
        expired.sort()
        obs = self.machine.classifier
        # The self-invalidations run back to back on the protocol processor.
        pp = node.pp
        free = pp.free_at
        if t < free:
            t = free
        cost = self._notice_cost
        cache = node.cache
        cbuf = node.cbuf
        dropped = 0
        for block in expired:
            t += cost
            del leases[block]
            if cache.invalidate(block):
                dropped += 1
                if obs is not None:
                    obs.record_invalidation(node.id, block, t)
                # Unflushed words for a dying line must reach memory for
                # the multiple-writer merge to be correct.
                if block in cbuf.words:
                    self._flush_words(node, t, block, cbuf.remove(block))
        node.stats.acquire_invalidations += dropped
        self.stats.acquire_invalidations += dropped
        self.stats.lease_expirations += dropped
        pp.free_at = t
        return t

    # ==========================================================================
    # Home side
    # ==========================================================================

    def _h_fetch_req(
        self, t: int, block: int, requester: int, pts: int, rw: bool
    ) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._dir_cost
        pp.free_at = tp
        wts, rts = home.directory.read(block, pts, self._lease)
        # Timestamp processing is hidden behind the memory access.
        rd = home.mem.rd
        free = rd.free_at
        tm = (t if t >= free else free) + self._mem_line_time
        rd.free_at = tm
        vm = self.machine.valmodel
        self.fabric.send(
            home.id,
            requester,
            DATA_REPLY,
            tp if tp > tm else tm,
            self._h_fetch_fill,
            block,
            requester,
            wts,
            rts,
            rw,
            vm.home_line(block) if vm is not None else None,
        )

    def _h_fetch_fill(
        self, t: int, block: int, requester: int, wts: int, rts: int,
        rw: bool, data=None,
    ) -> None:
        node = self.nodes[requester]
        bus = node.bus
        free = bus.free_at
        t_fill = (t if t >= free else free) + self._line_bus_time
        bus.free_at = t_fill
        self._install_line(node, t_fill, block, RW if rw else RO)
        # Read at-or-after the last published write; the lease is at
        # least as large, so a fresh fill never expires immediately.
        if wts > node.pts:
            node.pts = wts
        node.ts_lease[block] = rts
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
            if not rw:
                vm.read_fill(requester, block)
        if rw:
            node.wb_fetching.discard(block)
            self._retire_ready_wb(node, t_fill)
            node.txn_done(t_fill)
        else:
            node.proc.unblock(t_fill)

    # ==========================================================================
    # Evictions
    # ==========================================================================

    def handle_eviction(self, node, t: int, vblock: int, vstate: int) -> None:
        if self.machine.classifier is not None:
            self.machine.classifier.record_eviction(node.id, vblock, t)
        # Dirty words still coalescing must reach memory.
        words = node.cbuf.remove(vblock)
        if words:
            self._flush_words(node, t, vblock, words)
        node.ts_lease.pop(vblock, None)
        # Silent replacement: nothing to tell a home that tracks no
        # sharers; ts_dirty keeps the bump obligation until the release.
