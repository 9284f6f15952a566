"""Home-side machinery shared by the SC and eager RC protocols.

Implements the DASH-style MSI directory transactions:

* 2-hop reads from memory, 3-hop reads forwarded to a dirty owner (who
  supplies the data and a sharing writeback),
* writes that invalidate sharers (home collects the acknowledgements and
  then grants ownership) or forward a flush-invalidate to a dirty owner,
* per-block serialization at the home: a request for a block with an
  open transaction is queued and replayed when the transaction completes
  (the role the RAC/busy states play in DASH).

Requester-side completion differs between SC (unblock the CPU) and ERC
(retire the write-buffer head), so it is routed through the overridable
``_read_fill_done`` / ``_write_grant`` hooks.

A fill reply and a later coherence message for the same block can cross
in the network (the reply is delayed behind the memory access while an
invalidation or ownership forward departs immediately).  The requester
therefore tracks its in-flight fills (``node.fill_pending``); a
coherence message that finds its target line absent *but being fetched*
records the state the line must assume once the fill lands
(``node.fill_fixup``).  The waiting access still consumes the fill once
— it was ordered before the conflicting write — and the line is then
immediately invalidated (or downgraded), matching the use-once handling
of DASH's remote access cache.
"""

from __future__ import annotations

from collections import deque

from repro.cache.state import INVALID, RO, RW
from repro.directory.entry import DIRTY
from repro.network.messages import (
    ACK,
    DATA_REPLY,
    EVICT_NOTICE,
    FORWARD,
    INVALIDATE,
    OWNER_DATA,
    WRITEBACK,
)


class MSIHomeMixin:
    """Mixin over :class:`~repro.protocols.base.Protocol`."""

    dir_cost_attr = "erc_dir_cost"

    def _dir_cost(self) -> int:
        return getattr(self.cfg, self.dir_cost_attr)

    # -- in-flight fill tracking (requester side) ---------------------------------

    def _fill_begin(self, node, block: int) -> None:
        """A fill (read data or write grant) is now in flight to ``node``."""
        node.fill_pending[block] = node.fill_pending.get(block, 0) + 1

    def _fill_end(self, node, t: int, block: int, is_write_grant: bool = False) -> None:
        """The fill landed: apply any coherence action that overtook it."""
        left = node.fill_pending[block] - 1
        if left:
            node.fill_pending[block] = left
        else:
            del node.fill_pending[block]
        fixup = node.fill_fixup.pop(block, None)
        if fixup is None:
            return
        state, hits_grants = fixup
        if is_write_grant and not hits_grants:
            # A plain invalidation cannot be aimed at an ownership grant:
            # had the home processed our write first, the later write
            # would have *forwarded* to us instead.  The grant is the
            # home's more recent decision — the invalidation is stale.
            return
        if state == INVALID:
            if node.cache.invalidate(block):
                self.stats.eager_invalidations += 1
                if self.machine.classifier is not None:
                    self.machine.classifier.record_invalidation(node.id, block, t)
        else:  # RO: ownership was forwarded away while the grant traveled
            node.cache.downgrade(block)

    def _note_fill_fixup(
        self, node, block: int, state: int, hits_grants: bool
    ) -> bool:
        """Record that an in-flight fill must assume ``state`` on arrival.

        ``hits_grants`` marks fixups that apply even to an ownership
        grant (forwards, which the home only sends to the current
        owner-of-record).  Returns False when no fill is in flight (the
        message was simply stale, e.g. chasing an eviction hint)."""
        if block not in node.fill_pending:
            return False
        cur = node.fill_fixup.get(block)
        if cur is None or state < cur[0]:  # INVALID < RO: strongest wins
            node.fill_fixup[block] = (state, hits_grants)
        return True

    # -- forwards that chase an in-flight fill reply ----------------------------

    def _reply_begin(self, requester: int, block: int) -> None:
        """A fill reply (data or grant) is now in flight to ``requester``."""
        node = self.nodes[requester]
        node.fill_reply_pending[block] = node.fill_reply_pending.get(block, 0) + 1

    def _reply_end(self, node, block: int) -> None:
        left = node.fill_reply_pending[block] - 1
        if left:
            node.fill_reply_pending[block] = left
        else:
            del node.fill_reply_pending[block]

    def _defer_forward(self, onode, block: int, kind: str, *args) -> bool:
        """Hold a forward at the owner while its fill reply is in flight.

        The home's grant to the owner travels on the data channel; a
        later forward for the same block (control channel) can overtake
        it.  Processing the forward first would capture the line before
        the owner's pending access performed — DASH instead parks the
        forward in the RAC until the fill lands and is used once.  Only
        a reply provably in flight is waited on; if the owner's request
        is still queued at a busy home (no reply exists), waiting here
        would deadlock, so the forward proceeds against the
        fill-fixup machinery instead.
        """
        if not onode.cache.resident(block) and onode.fill_reply_pending.get(block):
            onode.fwd_deferred.setdefault(block, []).append((kind, args))
            return True
        return False

    def _process_deferred_forwards(self, node, t: int, block: int) -> None:
        if block in node.fill_reply_pending:
            return  # another reply still in flight; keep waiting
        pending = node.fwd_deferred.pop(block, None)
        if not pending:
            return
        for kind, args in pending:
            if kind == "read":
                self._h_forward_read(t, block, *args)
            else:
                self._h_forward_write(t, block, *args)

    # -- home-side busy/queue -----------------------------------------------------

    def _awaits_own_writeback(self, home, block: int, requester: int) -> bool:
        """Home-local inference that ``requester``'s writeback is in flight.

        An exclusive owner never requests its own block, so a request
        whose sender is still the recorded dirty owner can only mean the
        owner evicted the line and its WRITEBACK (data channel) was
        overtaken by this re-request (control channel).  The request is
        held until the writeback lands — judged purely from the home's
        directory, so the decision needs no cross-node state.
        """
        entry = home.directory.entries.get(block)
        return (
            entry is not None and entry.state == DIRTY and entry.owner == requester
        )

    def _home_defer(self, home, block: int, kind: str, *args) -> bool:
        """Queue the request if the block has an open transaction.

        Requests also queue behind an existing queue (even if the block
        just went idle) so that deferred requests are served in arrival
        order.
        """
        if (
            block in home.home_busy
            or self._awaits_own_writeback(home, block, args[0])
            or home.home_queue.get(block)
        ):
            home.home_queue.setdefault(block, deque()).append((kind, args))
            return True
        return False

    def _home_unbusy(self, home, t: int, block: int) -> None:
        home.home_busy.discard(block)
        self._home_replay(home, t, block)

    def _home_replay(self, home, t: int, block: int) -> None:
        # Replay deferred requests until one re-opens a transaction (sets
        # busy again) or the queue drains; a synchronously-served request
        # (plain 2-hop read) must not strand the ones behind it.
        q = home.home_queue.get(block)
        while q and block not in home.home_busy:
            kind, args = q[0]
            if self._awaits_own_writeback(home, block, args[0]):
                break  # released by _h_evict_wb when the writeback lands
            q.popleft()
            if kind == "read":
                self._do_read_req(t, block, *args)
            else:
                self._do_write_req(t, block, *args)
        if not q:
            home.home_queue.pop(block, None)

    # -- reads ------------------------------------------------------------------------

    def _h_read_req(self, t: int, block: int, requester: int) -> None:
        home = self.nodes[self.home_of(block)]
        if self._home_defer(home, block, "read", requester):
            return
        self._do_read_req(t, block, requester)

    def _do_read_req(self, t: int, block: int, requester: int) -> None:
        home = self.nodes[self.home_of(block)]
        tp = home.pp.reserve(t, self._dir_cost())
        out = home.directory.read(block, requester)
        if out.forward_to is not None:
            # 3-hop: the dirty owner supplies the line.
            self.stats.three_hop_reads += 1
            home.home_busy.add(block)
            home.home_fwd_owner[block] = out.forward_to
            self.fabric.send(
                home.id,
                out.forward_to,
                FORWARD,
                tp,
                self._h_forward_read,
                block,
                out.forward_to,
                requester,
            )
        else:
            # Directory processing is hidden behind the memory access
            # (Section 3): both start when the request arrives.
            tm = home.mem.read(t, self.cfg.line_size)
            vm = self.machine.valmodel
            self._reply_begin(requester, block)
            self.fabric.send(
                home.id,
                requester,
                DATA_REPLY,
                tp if tp > tm else tm,
                self._h_read_data,
                block,
                requester,
                vm.home_line(block) if vm is not None else None,
            )

    def _h_forward_read(self, t: int, block: int, owner: int, requester: int) -> None:
        onode = self.nodes[owner]
        if self._defer_forward(onode, block, "read", owner, requester):
            return
        tp = onode.pp.reserve(t, self.cfg.notice_cost)
        # Reading the line out of the owner's cache occupies its local bus
        # for a full line transfer (this is why dirty-remote reads cost
        # more than clean ones on DASH-class machines).
        tp = onode.bus.reserve(tp, self._line_bus_time)
        # The owner keeps a read-only copy (MSI sharing transition).  If
        # the line raced away via an eviction whose hint is still in
        # flight, the owner still plays its protocol role — only state,
        # not data values, is simulated.
        if onode.cache.resident(block):
            onode.cache.downgrade(block)
        elif block in onode.wb_inflight:
            # The line is already on its way home (eviction writeback in
            # flight); the owner serves its protocol role from the copy
            # conceptually still in its writeback buffer — no fill is
            # coming, so there is nothing to fix up.
            pass
        else:
            # The forward overtook the owner's own grant: the fill must
            # land shared, not exclusive.
            self._note_fill_fixup(onode, block, RO, hits_grants=True)
        vm = self.machine.valmodel
        data = vm.owner_line(owner, block) if vm is not None else None
        self._reply_begin(requester, block)
        self.fabric.send(
            onode.id, requester, OWNER_DATA, tp, self._h_read_data,
            block, requester, data,
        )
        home = self.nodes[self.home_of(block)]
        self.fabric.send(
            onode.id, home.id, WRITEBACK, tp, self._h_sharing_wb, block, data
        )

    def _h_sharing_wb(self, t: int, block: int, data=None) -> None:
        home = self.nodes[self.home_of(block)]
        vm = self.machine.valmodel
        if vm is not None:
            vm.apply_home(block, data)
        home.mem.write(t, self.cfg.line_size)
        self.stats.writebacks += 1
        home.home_fwd_owner.pop(block, None)
        self._home_unbusy(home, t, block)

    def _h_read_data(self, t: int, block: int, requester: int, data=None) -> None:
        node = self.nodes[requester]
        self._reply_end(node, block)
        # A refill is only granted once any prior writeback from this
        # node has landed (the home holds/queues the re-request), so the
        # in-flight mark is spent by now.
        node.wb_inflight.discard(block)
        t_fill = node.bus.reserve(t, self._line_bus_time)
        self._install_line(node, t_fill, block, RO)
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
        self._fill_end(node, t_fill, block)
        if vm is not None:
            vm.read_fill(requester, block)
        self._read_fill_done(node, t_fill, block)
        self._process_deferred_forwards(node, t_fill, block)

    def _read_fill_done(self, node, t: int, block: int) -> None:
        """Requester-side read completion (default: resume the CPU)."""
        node.proc.unblock(t)

    # -- writes ------------------------------------------------------------------------

    def _h_write_req(self, t: int, block: int, requester: int, has_copy: bool) -> None:
        home = self.nodes[self.home_of(block)]
        if self._home_defer(home, block, "write", requester, has_copy):
            return
        self._do_write_req(t, block, requester, has_copy)

    def _do_write_req(self, t: int, block: int, requester: int, has_copy: bool) -> None:
        home = self.nodes[self.home_of(block)]
        tp = home.pp.reserve(t, self._dir_cost())
        out = home.directory.write(block, requester, has_copy)
        if out.forward_to is not None:
            home.home_busy.add(block)
            self.fabric.send(
                home.id,
                out.forward_to,
                FORWARD,
                tp,
                self._h_forward_write,
                block,
                out.forward_to,
                requester,
            )
        elif out.invalidate:
            home.home_busy.add(block)
            home.msi_pending[block] = {
                "count": len(out.invalidate),
                "requester": requester,
                "needs_data": out.needs_data,
            }
            # Dispatching each invalidation occupies the home's protocol
            # processor briefly ("the cost is the sum of the directory
            # access and the dispatch of messages to the sharing
            # processors").
            td = tp
            for s in out.invalidate:
                td = home.pp.reserve(td, self.cfg.notice_cost)
                self.fabric.send(
                    home.id, s, INVALIDATE, td, self._h_inval, block, s
                )
        else:
            self._send_write_grant(home, t, tp, block, requester, out.needs_data)

    def _send_write_grant(
        self, home, t_arrival: int, tp: int, block: int, requester: int, needs_data: bool
    ) -> None:
        self._reply_begin(requester, block)
        if needs_data:
            tm = home.mem.read(t_arrival, self.cfg.line_size)
            vm = self.machine.valmodel
            self.fabric.send(
                home.id,
                requester,
                DATA_REPLY,
                tp if tp > tm else tm,
                self._h_write_grant_msg,
                block,
                requester,
                True,
                vm.home_line(block) if vm is not None else None,
            )
        else:
            self.fabric.send(
                home.id,
                requester,
                ACK,
                tp,
                self._h_write_grant_msg,
                block,
                requester,
                False,
                None,
            )

    def _h_forward_write(self, t: int, block: int, owner: int, requester: int) -> None:
        onode = self.nodes[owner]
        if self._defer_forward(onode, block, "write", owner, requester):
            return
        tp = onode.pp.reserve(t, self.cfg.notice_cost)
        tp = onode.bus.reserve(tp, self._line_bus_time)
        if onode.cache.invalidate(block):
            self.stats.eager_invalidations += 1
            if self.machine.classifier is not None:
                self.machine.classifier.record_invalidation(owner, block, tp)
        elif block in onode.wb_inflight:
            pass  # line already heading home; no fill to fix up
        else:
            self._note_fill_fixup(onode, block, INVALID, hits_grants=True)
        vm = self.machine.valmodel
        self._reply_begin(requester, block)
        self.fabric.send(
            onode.id,
            requester,
            OWNER_DATA,
            tp,
            self._h_write_grant_msg,
            block,
            requester,
            True,
            vm.owner_line(owner, block) if vm is not None else None,
        )
        home = self.nodes[self.home_of(block)]
        self.fabric.send(
            onode.id, home.id, ACK, tp, self._h_ownership_transferred, block
        )

    def _h_ownership_transferred(self, t: int, block: int) -> None:
        home = self.nodes[self.home_of(block)]
        self._home_unbusy(home, t, block)

    def _h_inval(self, t: int, block: int, target: int) -> None:
        tnode = self.nodes[target]
        tp = tnode.pp.reserve(t, self.cfg.notice_cost)
        if tnode.cache.invalidate(block):
            self.stats.eager_invalidations += 1
            if self.machine.classifier is not None:
                self.machine.classifier.record_invalidation(target, block, tp)
        else:
            self._note_fill_fixup(tnode, block, INVALID, hits_grants=False)
        home = self.nodes[self.home_of(block)]
        self.fabric.send(
            tnode.id, home.id, ACK, tp, self._h_inval_ack, block
        )

    def _h_inval_ack(self, t: int, block: int) -> None:
        home = self.nodes[self.home_of(block)]
        rec = home.msi_pending[block]
        rec["count"] -= 1
        if rec["count"] == 0:
            del home.msi_pending[block]
            tp = home.pp.reserve(t, self.cfg.notice_cost)
            self._send_write_grant(
                home, t, tp, block, rec["requester"], rec["needs_data"]
            )
            self._home_unbusy(home, tp, block)

    def _h_write_grant_msg(
        self, t: int, block: int, requester: int, with_data: bool, data=None
    ) -> None:
        node = self.nodes[requester]
        self._reply_end(node, block)
        node.wb_inflight.discard(block)  # any prior writeback has landed
        if with_data:
            t = node.bus.reserve(t, self._line_bus_time)
            self._install_line(node, t, block, RW)
            vm = self.machine.valmodel
            if vm is not None:
                vm.fill(requester, block, data)
        else:
            if node.cache.resident(block):
                node.cache.upgrade(block)
            else:
                # The line was evicted while the upgrade was in flight
                # (hint still traveling); re-install it exclusively.
                self._install_line(node, t, block, RW)
        self._fill_end(node, t, block, is_write_grant=True)
        self._write_grant(node, t, block)
        self._process_deferred_forwards(node, t, block)

    def _write_grant(self, node, t: int, block: int) -> None:
        """Requester-side write completion.  Overridden per protocol."""
        raise NotImplementedError

    # -- evictions -----------------------------------------------------------------------

    def handle_eviction(self, node, t: int, vblock: int, vstate: int) -> None:
        if self.machine.classifier is not None:
            self.machine.classifier.record_eviction(node.id, vblock, t)
        home_id = self.home_of(vblock)
        if vstate == RW:
            self.stats.writebacks += 1
            # Evictor-local note: lets a later coherence forward for this
            # block tell "line already heading home" apart from "fill
            # grant in flight" (see _h_forward_read).  The home is told
            # nothing here — it infers the in-flight writeback from its
            # own directory when the evictor re-requests the block
            # (_awaits_own_writeback), keeping all cross-node influence
            # on messages.
            node.wb_inflight.add(vblock)
            vm = self.machine.valmodel
            self.fabric.send(
                node.id, home_id, WRITEBACK, t, self._h_evict_wb, vblock,
                node.id, vm.owner_line(node.id, vblock) if vm is not None else None,
            )
        else:
            self.fabric.send(
                node.id,
                home_id,
                EVICT_NOTICE,
                t,
                self._h_evict_hint,
                vblock,
                node.id,
            )

    def _h_evict_wb(self, t: int, block: int, src: int, data=None) -> None:
        home = self.nodes[self.home_of(block)]
        vm = self.machine.valmodel
        if vm is not None:
            vm.apply_home(block, data)
        home.mem.write(t, self.cfg.line_size)
        entry = home.directory.entries.get(block)
        if entry is not None and entry.state == DIRTY and entry.owner == src:
            home.directory.evict(block, src, dirty=True)
        elif home.home_fwd_owner.get(block) == src:
            # A read forward consumed the line while this writeback was
            # in flight: the directory reshaped to SHARED but kept the
            # forwarded-away owner in the sharer set.  ``src`` no longer
            # caches the line — and cannot have been re-granted it yet:
            # the sharing writeback that closes the forward travels the
            # same src->home data channel as this message (FIFO per
            # channel), so the block is still busy and any re-request
            # from ``src`` is still queued.  Unlist the stale sharer.
            home.directory.evict(block, src, dirty=False)
        # else: another transaction already reshaped the directory (a
        # write forward unlists the old owner itself) — the data simply
        # lands in memory and must not erase the newer entry.
        self._home_replay(home, t, block)

    def _h_evict_hint(self, t: int, block: int, src: int) -> None:
        home = self.nodes[self.home_of(block)]
        entry = home.directory.entries.get(block)
        if entry is not None and entry.state == DIRTY and entry.owner == src:
            # Stale hint: ``src`` held the line read-only, issued an
            # upgrade, and then evicted the RO copy while the grant was
            # in flight.  The hint (sent after the request, so processed
            # after the grant was issued) must not erase the exclusive
            # entry — the requester re-installs the line when the grant
            # lands (see _h_write_grant_msg).  A dirty owner that really
            # gives up the line sends a WRITEBACK, never a clean hint.
            return
        home.directory.evict(block, src, dirty=False)
