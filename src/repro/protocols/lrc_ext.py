"""The lazier protocol variant: write notices deferred to release points.

Section 2: "Under this protocol, the node's protocol processor will
refrain from sending a write request to a block's home node as long as
possible.  Notification is sent either when a written block is replaced
in a processor's cache, or when the processor performs a release
operation."

Differences from :class:`~repro.protocols.lrc.LRCProtocol`:

* a write to a read-only line upgrades locally and records the block in
  a bounded per-node *deferred notice* buffer — no message is sent;
* a write miss fetches the line as a *reader* (the directory does not
  learn about the writer) and then defers the notice;
* at a release, every deferred notice is sent; the home runs the usual
  weak-transition/ack-collection machinery and the release stalls until
  all final acknowledgements return — this is the synchronization cost
  that, per the paper's results, usually outweighs the miss-rate benefit;
* an eviction of a block with a deferred notice sends the notice first
  (this bounds the buffer and keeps directory processing simple);
* write requests from several processors that arrive together (e.g. at
  a barrier) share one ack collection at the home — the combining that
  makes fft *faster* under this protocol.

Data still flows through the write-through coalescing buffer
continuously, so home memory stays current; only the *notices* are lazy.
"""

from __future__ import annotations

from repro.cache.state import RW
from repro.network.messages import DATA_REPLY, READ_REQ, WRITE_NOTICE
from repro.protocols.lrc import LRCProtocol


class LRCExtProtocol(LRCProtocol):
    name = "lrc-ext"

    # ==========================================================================
    # CPU side
    # ==========================================================================

    def _announce_upgrade(self, node, t: int, block: int) -> None:
        """An RO line was upgraded by a write: defer its notice."""
        node.deferred_notices.add(block)

    def _send_write_fetch(self, node, t: int, block: int) -> None:
        """Fetch the line as a *reader*; the write notice stays deferred."""
        self.fabric.send(
            node.id,
            self.home_of(block),
            READ_REQ,
            t,
            self._h_write_fetch_req,
            block,
            node.id,
        )

    def _h_write_fetch_req(self, t: int, block: int, requester: int) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._dir_cost
        out = home.directory.read(block, requester)
        rd = home.mem.rd
        free = rd.free_at
        tm = (t if t >= free else free) + self._mem_line_time
        rd.free_at = tm
        treply = tp if tp > tm else tm
        # The notices go out back to back on the protocol processor.
        notices = out.notices_to
        if notices:
            self.stats.notices_sent += len(notices)
            td = treply
            for w in notices:
                td += self._notice_cost
                self.fabric.send(
                    home.id, w, WRITE_NOTICE, td, self._h_notice_info, block, w
                )
            tp = td
        pp.free_at = tp
        vm = self.machine.valmodel
        self.fabric.send(
            home.id,
            requester,
            DATA_REPLY,
            treply,
            self._h_write_fetch_fill,
            block,
            requester,
            out.weak_for_reader,
            vm.home_line(block) if vm is not None else None,
        )

    def _h_write_fetch_fill(
        self, t: int, block: int, requester: int, weak: bool, data=None
    ) -> None:
        node = self.nodes[requester]
        bus = node.bus
        free = bus.free_at
        t_fill = (t if t >= free else free) + self._line_bus_time
        bus.free_at = t_fill
        self._install_line(node, t_fill, block, RW)
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
        node.wb_fetching.discard(block)
        if node.release_cb is not None:
            # A release fence is already waiting: it scanned (and posted)
            # the deferred notices before this fill landed, so deferring
            # now would let the release complete without ever announcing
            # the write.  Post the notice immediately; the fence also
            # waits for its final ack.
            self.stats.deferred_notices += 1
            self._send_write_notice(node, t_fill, block, has_copy=True)
        else:
            node.deferred_notices.add(block)
        if weak:
            node.pending_inval.add(block)
        self._retire_ready_wb(node, t_fill)
        node.txn_done(t_fill)

    # ==========================================================================
    # Release: post the deferred notices, then wait for everything
    # ==========================================================================

    def _pre_release(self, node, t: int, cont) -> None:
        deferred = node.deferred_notices
        if deferred:
            # The notices are posted back to back on the protocol processor.
            pp = node.pp
            free = pp.free_at
            ts = t if t >= free else free
            for block in sorted(deferred):
                ts += self._notice_cost
                self.stats.deferred_notices += 1
                self._send_write_notice(node, ts, block, has_copy=True)
            pp.free_at = ts
            deferred.clear()
        super()._pre_release(node, t, cont)

    # ==========================================================================
    # Acquire invalidations: a deferred notice must be posted before the
    # line can be relinquished, or the writes would never be announced.
    # ==========================================================================

    def _process_pending_invals(self, node, t: int) -> int:
        if node.pending_inval:
            overlap = node.pending_inval & node.deferred_notices
            for block in sorted(overlap):
                self.stats.deferred_notices += 1
                self._send_write_notice(node, t, block, has_copy=True)
                node.deferred_notices.discard(block)
        return super()._process_pending_invals(node, t)

    # ==========================================================================
    # Evictions flush the deferred notice first
    # ==========================================================================

    def handle_eviction(self, node, t: int, vblock: int, vstate: int) -> None:
        if vblock in node.deferred_notices:
            node.deferred_notices.discard(vblock)
            self.stats.deferred_notices += 1
            # The notice (write request) travels ahead of the eviction
            # hint on the same source->home path, so the home registers
            # the write, runs its notice/ack machinery, and only then
            # removes the evictor from the sharer set.
            self._send_write_notice(node, t, vblock, has_copy=True)
        super().handle_eviction(node, t, vblock, vstate)
