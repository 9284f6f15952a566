"""Lazy release consistency for hardware-coherent multiprocessors.

The paper's primary contribution (Section 2).  Key properties:

* **Multiple concurrent writers.**  A write to a block cached read-only
  retires immediately — the home is informed (a write notice is sent
  right away, overlapped with computation) but the writer does not wait
  for ownership.  There is no serializing owner.
* **Lazy invalidations.**  Write notices received by a sharer are only
  *recorded*; the lines are invalidated at the sharer's next acquire
  (much of that work is hidden behind the lock-acquisition latency).
* **2-hop reads, always.**  The home never forwards a read: with
  write-through caches its memory is always current enough ("If it is
  being written, then the fact that the read occurred indicates that no
  synchronization operation separates the write from the read" — true
  sharing is not occurring).
* **Write-through + coalescing buffer.**  Required for correctness with
  multiple writers (word-granularity merging in memory); a 16-entry
  coalescing buffer keeps the traffic at write-back levels and keeps
  releases cheap.
* **Releases** stall until the write buffer has drained, every
  outstanding transaction (write notices awaiting home acknowledgement,
  coalescing-buffer flushes) has completed, and memory has acknowledged
  the write-throughs.
"""

from __future__ import annotations

from typing import Set

from repro.cache.coalescing_buffer import CoalescingBuffer
from repro.cache.state import INVALID, RO, RW
from repro.cache.write_buffer import WriteBuffer
from repro.directory.lazy import LazyDirectory
from repro.network.messages import (
    ACK,
    DATA_REPLY,
    EVICT_NOTICE,
    READ_REQ,
    RELINQUISH,
    WRITE_NOTICE,
    WRITE_REQ,
    WRITE_THROUGH,
)
from repro.protocols.base import Protocol


class LRCProtocol(Protocol):
    name = "lrc"
    uses_write_buffer = True
    write_through = True
    wb_coalesce_states = frozenset((INVALID,))  # RO upgrades, RW uses the cbuf
    dir_cost_attr = "lrc_dir_cost"

    def __init__(self, machine) -> None:
        super().__init__(machine)
        cfg = self.cfg
        # Hot-path costs hoisted out of the handlers, which book the
        # protocol processor, bus and memory ports inline (busy-until
        # ``free_at``, the rule of Resource.reserve).
        self._dir_cost = cfg.lrc_dir_cost
        self._notice_cost = cfg.notice_cost
        self._word_size = cfg.word_size
        # Memory-port time of an access of every payload size up to a
        # line (write-throughs carry only their dirty words).
        self._mem_time = [cfg.memory_time(size) for size in range(cfg.line_size + 1)]
        self._mem_line_time = self._mem_time[cfg.line_size]

    def make_directory(self):
        return LazyDirectory()

    def attach_node(self, node) -> None:
        node.directory = self.make_directory()
        node.wb = WriteBuffer(self.cfg.wb_entries)
        node.cbuf = CoalescingBuffer(self.cfg.cbuf_entries)

    # ==========================================================================
    # CPU side
    # ==========================================================================

    def cpu_read_miss(self, node, t: int, block: int) -> None:
        if node.wt_inflight.get(block):
            # Our own write-through for this line is still traveling: a
            # read request (control channel) would overtake it (data
            # channel) and the home would serve the pre-write line,
            # breaking read-own-write.  Hold the miss until the ack.
            node.wt_waiters.setdefault(block, []).append("read")
            return
        self._send_read_req(node, t, block)

    def _send_read_req(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            READ_REQ,
            t,
            self._h_read_req,
            block,
            node.id,
        )

    def cpu_write(self, node, t: int, block: int, word: int) -> int:
        if node.cache.lookup(block):
            self.cpu_write_words(node, t, block, (word,))
            return t + 1
        # Line absent: the write buffer holds the words until the line
        # arrives from the home.
        wb = node.wb
        existing = wb.contains(block)
        if not wb.add(block, word):
            return -1
        if not existing:  # new entry: start the fetch
            node.stats.write_misses += 1
            obs = self.machine.classifier
            if obs is not None:
                obs.classify_miss(node.id, block, word, t)
            self._issue_write_fetch(node, t, block)
        return t + 1

    def cpu_write_words(self, node, t: int, block: int, words) -> None:
        """Write ``words`` (word indices) of a present line into its
        coalescing-buffer entry.

        Every write to a present line that is not a buffer hit lands
        here: ``cpu_write`` with one word, the CPU with a whole span's
        words when only the first write needs the protocol, and the write
        buffer as it retires an entry onto its fetched RW line.  An RO
        line is upgraded first: the write retires immediately, with no
        need to wait for the home ("we do not need to use the home node
        as a serializing point"), and :meth:`_announce_upgrade` starts
        the notice transaction in the background.  Each write costs the
        CPU one cycle; the caller advances its own clock.

        The buffer's add, FIFO victim and background drain run here in
        one frame, on its ``order`` deque and ``words`` map; the
        :class:`CoalescingBuffer` methods serve every other caller.  The
        entry for ``block`` is never the one drained: the drain keeps
        the newest entry.
        """
        cache = node.cache
        upgrade = cache.states[block & cache.set_mask] == RO
        if upgrade:
            node.stats.upgrade_misses += 1
            obs = self.machine.classifier
            if obs is not None:
                obs.classify_write_upgrade(node.id, block, t)
            cache.upgrade(block)
        if node.release_cb is not None:
            # A release fence is already waiting: write-buffer entries that
            # retire now must go straight through to memory, or the fence
            # would deadlock waiting for a buffer it already drained.
            self._flush_words(node, t, block, set(words))
        else:
            cbuf = node.cbuf
            entries = cbuf.words
            order = cbuf.order
            ws = entries.get(block)
            victim = None
            if ws is not None:
                ws.update(words)
            else:
                if len(order) >= cbuf.capacity:
                    victim = order.popleft()
                    vwords = entries.pop(victim)
                entries[block] = set(words)
                order.append(block)
                if cbuf.tracer is not None:
                    cbuf.tracer.emit(
                        "cbuf_add", cbuf.owner, block=block, victim=victim,
                        depth=len(order),
                    )
            if victim is not None:
                self._flush_words(node, t, victim, vwords)
            else:
                # The background drain (see _kick_drain).
                while len(order) >= 2 and node.wt_drain_busy < self.DRAIN_WIDTH:
                    head = order.popleft()
                    hwords = entries.pop(head)
                    if cbuf.tracer is not None:
                        cbuf.tracer.emit("cbuf_remove", cbuf.owner, block=head)
                    node.wt_drain_busy += 1
                    self._flush_words(node, t, head, hwords, True)
        if upgrade:
            self._announce_upgrade(node, t, block)

    def _announce_upgrade(self, node, t: int, block: int) -> None:
        """An RO line was upgraded by a write: send the write notice."""
        self._send_write_notice(node, t, block, has_copy=True)

    def _issue_write_fetch(self, node, t: int, block: int) -> None:
        node.wb_fetching.add(block)
        node.txn_start()
        if node.wt_inflight.get(block):
            # Same ordering rule as cpu_read_miss: the fetch reply would
            # otherwise carry the line as it was before our own in-flight
            # write-through merged.
            node.wt_waiters.setdefault(block, []).append("fetch")
            return
        self._send_write_fetch(node, t, block)

    def _send_write_fetch(self, node, t: int, block: int) -> None:
        self.fabric.send(
            node.id,
            self.home_of(block),
            WRITE_REQ,
            t,
            self._h_write_req,
            block,
            node.id,
            False,
        )

    def _send_write_notice(self, node, t: int, block: int, has_copy: bool) -> None:
        node.txn_start()
        self.fabric.send(
            node.id,
            self.home_of(block),
            WRITE_REQ,
            t,
            self._h_write_req,
            block,
            node.id,
            has_copy,
        )

    # -- coalescing buffer -----------------------------------------------------------

    #: Maximum concurrent background write-through flushes per node.
    DRAIN_WIDTH = 4

    def _kick_drain(self, node, t: int) -> None:
        """Background drain (Jouppi-style coalescing write buffer).

        The buffer retains the most recent entry so a burst of writes to
        one line coalesces into a single memory update, but older entries
        drain continuously — up to DRAIN_WIDTH flushes in flight — so
        releases only wait for a short tail instead of the whole buffer.
        """
        cbuf = node.cbuf
        order = cbuf.order
        entries = cbuf.words
        while node.wt_drain_busy < self.DRAIN_WIDTH and len(order) >= 2:
            head = order.popleft()
            words = entries.pop(head)
            if cbuf.tracer is not None:
                cbuf.tracer.emit("cbuf_remove", cbuf.owner, block=head)
            node.wt_drain_busy += 1
            self._flush_words(node, t, head, words, True)

    def _flush_words(
        self, node, t: int, block: int, words: Set[int], background: bool = False
    ) -> None:
        """Write dirty words through to the home memory (asks for an ack).

        Opens a transaction the release waits on (``Node.txn_start``,
        inline)."""
        nid = node.id
        node.out_count += 1
        if node.tracer is not None:
            node.tracer.emit("txn_start", nid, out=node.out_count)
        inflight = node.wt_inflight
        inflight[block] = inflight.get(block, 0) + 1
        self.stats.write_throughs += 1
        size = len(words) * self._word_size
        vm = self.machine.valmodel
        home = self.home_of(block)
        self.fabric.send(
            nid,
            home,
            WRITE_THROUGH,
            t,
            self._h_write_through,
            block,
            nid,
            home,
            size,
            background,
            vm.flush_capture(nid, block, words) if vm is not None else None,
            size=size,
        )

    def _h_write_through(
        self, t: int, block: int, src: int, home: int, size: int,
        background: bool, data,
    ) -> None:
        vm = self.machine.valmodel
        if vm is not None:
            vm.apply_home(block, data)
        wr = self.nodes[home].mem.wr
        free = wr.free_at
        tm = (t if t >= free else free) + self._mem_time[size]
        wr.free_at = tm
        self.fabric.send(
            home, src, ACK, tm, self._h_wt_ack, src, background, block
        )

    def _h_wt_ack(self, t: int, src: int, background: bool, block: int) -> None:
        """A write-through reached memory: close its transaction
        (``Node.txn_done``, inline), release any misses held behind it,
        and keep the background drain going."""
        node = self.nodes[src]
        out = node.out_count - 1
        node.out_count = out
        if node.tracer is not None:
            node.tracer.emit("txn_done", src, t=t, out=out)
        if out < 0:
            raise RuntimeError(f"node {src}: negative outstanding count")
        if out == 0 and node.release_cb is not None:
            node.check_release(t)
        if background:
            node.wt_drain_busy -= 1
        inflight = node.wt_inflight
        left = inflight[block] - 1
        if left:
            inflight[block] = left
        else:
            del inflight[block]
            waiters = node.wt_waiters
            if waiters:
                for kind in waiters.pop(block, ()):
                    self._wt_waiter_resume(node, t, block, kind)
        if background and len(node.cbuf.order) >= 2:
            self._kick_drain(node, t)

    def _wt_waiter_resume(self, node, t: int, block: int, kind: str) -> None:
        """Resume one message held behind this block's write-throughs.
        Subclasses add waiter kinds (tardis queues timestamp bumps)."""
        if kind == "read":
            self._send_read_req(node, t, block)
        else:
            self._send_write_fetch(node, t, block)

    # ==========================================================================
    # Release / acquire semantics
    # ==========================================================================

    def _pre_release(self, node, t: int, cont) -> None:
        # Flush the coalescing buffer; the resulting write-throughs (and
        # any outstanding notices/fetches) must be acknowledged before
        # the release completes.
        for block, words in node.cbuf.drain():
            self._flush_words(node, t, block, words)
        super()._pre_release(node, t, cont)

    def _process_pending_invals(self, node, t: int) -> int:
        """Invalidate every line named by a received write notice.

        Each invalidation occupies the protocol processor briefly and
        sends a "no longer caching" message to the home so the block can
        revert toward SHARED/UNCACHED.  Returns the completion time.
        """
        pend = node.pending_inval
        if not pend:
            return t
        obs = self.machine.classifier
        # The invalidations run back to back on the protocol processor.
        pp = node.pp
        free = pp.free_at
        if t < free:
            t = free
        cost = self._notice_cost
        for block in sorted(pend):
            t += cost
            if node.cache.invalidate(block):
                node.stats.acquire_invalidations += 1
                self.stats.acquire_invalidations += 1
                if obs is not None:
                    obs.record_invalidation(node.id, block, t)
                # Unflushed words for a dying line must reach memory for
                # the multiple-writer merge to be correct.
                words = node.cbuf.remove(block)
                if words:
                    self._flush_words(node, t, block, words)
                self.fabric.send(
                    node.id,
                    self.home_of(block),
                    RELINQUISH,
                    t,
                    self._h_relinquish,
                    block,
                    node.id,
                )
        pp.free_at = t
        pend.clear()
        return t

    def _h_relinquish(self, t: int, block: int, src: int) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        pp.free_at = (t if t >= free else free) + self._notice_cost
        home.directory.remove(block, src)

    # ==========================================================================
    # Home side
    # ==========================================================================

    def _h_read_req(self, t: int, block: int, requester: int) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._dir_cost
        out = home.directory.read(block, requester)
        # Directory processing is hidden behind the memory access.
        rd = home.mem.rd
        free = rd.free_at
        tm = (t if t >= free else free) + self._mem_line_time
        rd.free_at = tm
        treply = tp if tp > tm else tm
        # A read of a dirty block notifies the current writer (footnote 1).
        # The notice is informational: no ack is collected, and the writer
        # does not invalidate (its copy is complete — see directory/lazy).
        # The notices go out back to back on the protocol processor.
        notices = out.notices_to
        if notices:
            self.stats.notices_sent += len(notices)
            td = treply
            for w in notices:
                td += self._notice_cost
                self.fabric.send(
                    home.id,
                    w,
                    WRITE_NOTICE,
                    td,
                    self._h_notice_info,
                    block,
                    w,
                )
            tp = td
        pp.free_at = tp
        vm = self.machine.valmodel
        self.fabric.send(
            home.id,
            requester,
            DATA_REPLY,
            treply,
            self._h_read_fill,
            block,
            requester,
            out.weak_for_reader,
            vm.home_line(block) if vm is not None else None,
        )

    def _h_read_fill(
        self, t: int, block: int, requester: int, weak: bool, data=None
    ) -> None:
        node = self.nodes[requester]
        bus = node.bus
        free = bus.free_at
        t_fill = (t if t >= free else free) + self._line_bus_time
        bus.free_at = t_fill
        self._install_line(node, t_fill, block, RO)
        if weak:
            node.pending_inval.add(block)
        vm = self.machine.valmodel
        if vm is not None:
            vm.fill(requester, block, data)
            vm.read_fill(requester, block)
        node.proc.unblock(t_fill)

    def _h_write_req(self, t: int, block: int, requester: int, has_copy: bool) -> None:
        home = self.nodes[self.home_of(block)]
        pp = home.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._dir_cost
        directory = home.directory
        out = directory.write(block, requester, has_copy)
        e = directory.entries[block]
        notices = out.notices_to
        awaiting = bool(notices) or e.pending_acks > 0
        # Data reply (if the writer lacks the line) is sent immediately —
        # the writer can retire the buffered words; the *final* ack that
        # the release fence waits on may come later, after notice acks.
        if out.needs_data:
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
                self._h_write_fill,
                block,
                requester,
                out.weak_for_writer,
                not awaiting,
                vm.home_line(block) if vm is not None else None,
            )
        # The notices go out back to back on the protocol processor.
        td = tp
        if notices:
            self.stats.notices_sent += len(notices)
            for s in notices:
                td += self._notice_cost
                self.fabric.send(
                    home.id, s, WRITE_NOTICE, td, self._h_notice, block, s, True
                )
        pp.free_at = td
        if awaiting:
            # Join the (possibly already open) ack collection; the home
            # acknowledges every waiting writer at once when the count
            # reaches zero.  The weak-for-writer flag rides along so a
            # multi-writer upgrade still learns to self-invalidate.
            e.pending_acks += len(notices)
            e.pending_requesters.append((requester, out.weak_for_writer and not out.needs_data))
        elif not out.needs_data:
            self.fabric.send(
                home.id,
                requester,
                ACK,
                tp,
                self._h_final_ack_blk,
                requester,
                out.weak_for_writer,
                block,
            )

    def _h_write_fill(
        self, t: int, block: int, requester: int, weak: bool, final: bool, data=None
    ) -> None:
        """Data for a write miss: install RW and retire buffered words."""
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
        if weak:
            node.pending_inval.add(block)
        self._retire_ready_wb(node, t_fill)
        if final:
            node.txn_done(t_fill)

    def _retire_ready_wb(self, node, t: int) -> None:
        """Retire write-buffer entries in FIFO order while the head's
        line is present read-write.  If the head's line was displaced by
        an intervening fill (direct-mapped conflict) its fetch is
        reissued — otherwise the entry could never retire."""
        wb = node.wb
        vm = self.machine.valmodel
        retired = False
        while not wb.empty:
            head = wb.head()
            if node.cache.lookup(head) == RW:
                words = wb.retire_head()
                if vm is not None:
                    vm.wb_retire(node.id, head)
                self.cpu_write_words(node, t, head, words)
                retired = True
            else:
                if head not in node.wb_fetching:
                    self._issue_write_fetch(node, t, head)
                break
        if retired:
            proc = node.proc
            if proc.blocked_on_write_buffer:
                proc.unblock(t)
            node.check_release(t)

    def _h_notice(self, t: int, block: int, target: int, needs_ack: bool) -> None:
        tnode = self.nodes[target]
        pp = tnode.pp
        free = pp.free_at
        tp = (t if t >= free else free) + self._notice_cost
        pp.free_at = tp
        tnode.pending_inval.add(block)
        if needs_ack:
            self.fabric.send(
                target, self.home_of(block), ACK, tp, self._h_notice_ack, block
            )

    def _h_notice_info(self, t: int, block: int, target: int) -> None:
        """Informational notice to a dirty block's writer on a read-induced
        weak transition: protocol-processor cost only, no invalidation."""
        pp = self.nodes[target].pp
        free = pp.free_at
        pp.free_at = (t if t >= free else free) + self._notice_cost

    def _h_notice_ack(self, t: int, block: int) -> None:
        home = self.nodes[self.home_of(block)]
        e = home.directory.entry(block)
        e.pending_acks -= 1
        if e.pending_acks == 0 and e.pending_requesters:
            pp = home.pp
            free = pp.free_at
            tp = (t if t >= free else free) + self._notice_cost
            pp.free_at = tp
            for req, weak in e.pending_requesters:
                self.fabric.send(
                    home.id,
                    req,
                    ACK,
                    tp,
                    self._h_final_ack_blk,
                    req,
                    weak,
                    block,
                )
            e.pending_requesters = []

    def _h_final_ack_blk(self, t: int, requester: int, weak: bool, block: int) -> None:
        node = self.nodes[requester]
        if weak:
            node.pending_inval.add(block)
        node.txn_done(t)

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
        # No need to remember notices for lines no longer cached.
        node.pending_inval.discard(vblock)
        self.fabric.send(
            node.id,
            self.home_of(vblock),
            EVICT_NOTICE,
            t,
            self._h_relinquish,
            vblock,
            node.id,
        )
