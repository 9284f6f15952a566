"""Sequentially consistent directory protocol.

The normalization baseline of every figure in the paper ("execution time
is normalized with respect to the execution time of the sequentially
consistent protocol").

A sequentially consistent processor exposes each access's full latency:

* read misses stall the CPU until the fill completes;
* writes stall the CPU until ownership (and data, if absent) is granted —
  there is no write buffer, so these stalls land in the "write" bucket
  of the overhead breakdown;
* acquires and releases are plain lock operations: all writes have
  already globally performed when the release executes.
"""

from __future__ import annotations

from repro.cache.state import INVALID, RO, RW
from repro.directory.msi import MSIDirectory
from repro.network.messages import READ_REQ, WRITE_REQ
from repro.protocols.base import Protocol
from repro.protocols.msi_home import MSIHomeMixin


class SCProtocol(MSIHomeMixin, Protocol):
    name = "sc"
    uses_write_buffer = False
    write_through = False
    dir_cost_attr = "erc_dir_cost"

    def make_directory(self):
        return MSIDirectory()

    def attach_node(self, node) -> None:
        node.directory = self.make_directory()
        node.wb = None
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
        state = node.cache.lookup(block)
        obs = self.machine.classifier
        if state == RO:
            node.stats.upgrade_misses += 1
            if obs is not None:
                obs.classify_write_upgrade(node.id, block, t)
        else:
            node.stats.write_misses += 1
            if obs is not None:
                obs.classify_miss(node.id, block, word, t)
        # Returning -1 makes the processor stall (write bucket) and retry
        # the write — which then hits — after _write_grant resumes it.
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
        return -1

    def _write_grant(self, node, t: int, block: int) -> None:
        # The write is performed at the grant, atomically with ownership:
        # see Processor.complete_pending_write for the livelock rationale.
        node.proc.complete_pending_write()
        node.proc.unblock(t)
