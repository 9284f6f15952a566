"""Eager release consistency (DASH-like).

"Hardware implementations of release consistency, as in the DASH
multiprocessor, take an eager approach: write operations trigger
coherence transactions (e.g., invalidations) immediately, though the
transactions execute concurrently with continued execution of the
application.  The processor stalls only if its write buffer overflows,
or if it reaches a release operation and some of its previous
transactions have yet to be completed."

Mechanics:

* write-back caches; a 4-entry write buffer coalesces writes to the same
  line and lets reads bypass;
* the write-buffer head drains through the directory: a write to a
  shared block invalidates the other sharers eagerly (home collects the
  acks before granting ownership);
* a release stalls until the write buffer is empty and every outstanding
  ownership transaction has been acknowledged;
* acquires perform no invalidation work (it already happened, eagerly).
"""

from __future__ import annotations

from repro.cache.state import INVALID, RO, RW
from repro.cache.write_buffer import WriteBuffer
from repro.directory.msi import MSIDirectory
from repro.network.messages import READ_REQ, WRITE_REQ
from repro.protocols.base import Protocol
from repro.protocols.msi_home import MSIHomeMixin


class ERCProtocol(MSIHomeMixin, Protocol):
    name = "erc"
    uses_write_buffer = True
    write_through = False
    wb_coalesce_states = frozenset((INVALID, RO))
    dir_cost_attr = "erc_dir_cost"

    def make_directory(self):
        return MSIDirectory()

    def attach_node(self, node) -> None:
        node.directory = self.make_directory()
        node.wb = WriteBuffer(self.cfg.wb_entries)
        node.cbuf = None

    # -- CPU side ----------------------------------------------------------------------

    def cpu_read_miss(self, node, t: int, block: int) -> None:
        self._fill_begin(node, block)
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
        """Buffer the write; kick the drain if the buffer was idle.

        Returns -1 (CPU stalls, op retried) when the buffer is full."""
        wb = node.wb
        if not wb.add(block, word):
            return -1
        if not node.wb_head_busy:
            self._drain_wb(node, t)
        return t + 1

    # -- write-buffer drain ---------------------------------------------------------------

    def _drain_wb(self, node, t: int) -> None:
        """Advance the FIFO head as far as it will go without waiting."""
        wb = node.wb
        cache = node.cache
        obs = self.machine.classifier
        while not wb.empty:
            block = wb.head()
            state = cache.lookup(block)
            if state == RW:
                wb.retire_head()
                vm = self.machine.valmodel
                if vm is not None:
                    vm.wb_retire(node.id, block)
                self._after_retire(node, t)
                continue
            # The head needs a coherence transaction; it retires when the
            # ownership grant returns.
            node.wb_head_busy = True
            node.txn_start()
            if state == RO:
                node.stats.upgrade_misses += 1
                if obs is not None:
                    obs.classify_write_upgrade(node.id, block, t)
            else:
                node.stats.write_misses += 1
                if obs is not None:
                    obs.classify_miss(node.id, block, min(wb.words[block]), t)
            self._fill_begin(node, block)
            self.fabric.send(
                node.id,
                self.home_of(block),
                WRITE_REQ,
                t,
                self._h_write_req,
                block,
                node.id,
                state == RO,
            )
            return

    def _write_grant(self, node, t: int, block: int) -> None:
        """Ownership arrived: retire the head and continue draining."""
        wb = node.wb
        assert wb.head() == block, "write grant for a non-head entry"
        wb.retire_head()
        vm = self.machine.valmodel
        if vm is not None:
            vm.wb_retire(node.id, block)
        node.wb_head_busy = False
        node.txn_done(t)
        self._after_retire(node, t)
        self._drain_wb(node, t)

    def _after_retire(self, node, t: int) -> None:
        """A slot freed: wake a CPU stalled on a full buffer; check release."""
        proc = node.proc
        if proc.blocked_on_write_buffer:
            proc.unblock(t)
        node.check_release(t)
