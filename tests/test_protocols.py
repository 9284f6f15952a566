"""Protocol-level scenario tests on small machines.

These drive specific sharing patterns and check the *protocol-visible*
consequences: directory states, invalidation behavior, message mixes,
and stall accounting — the mechanisms Section 2 of the paper describes.
"""

import pytest

from repro import Machine, SystemConfig
from repro.cache.state import INVALID, RO, RW
from repro.directory.entry import DIRTY, SHARED, UNCACHED, WEAK
from repro.network.messages import MsgType
from repro.program.ops import (
    ACQUIRE,
    BARRIER,
    COMPUTE,
    FENCE,
    READ,
    READ_RUN,
    RELEASE,
    SET_FLAG,
    WAIT_FLAG,
    WRITE,
    WRITE_RUN,
)


def cfg(n=4, **kw):
    kw.setdefault("cache_size", 32 * 128)
    return SystemConfig.scaled(n_procs=n, **kw)


def run(machine, progs):
    return machine.run(progs)


def dir_entry(machine, addr):
    block = addr >> machine.config.line_shift
    home = machine.home_of(block)
    return machine.nodes[home].directory, block


class TestLRCMechanisms:
    def test_reader_keeps_stale_line_until_acquire(self):
        """The core laziness: a write elsewhere does not invalidate a
        cached reader until the reader synchronizes."""
        m = Machine(cfg(2), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (WRITE, seg.base)       # notice goes out...
            yield (COMPUTE, 20000)
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)        # cache it
            yield (COMPUTE, 10000)
            yield (READ, seg.base)        # ...but this still HITS (stale)
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        # One read miss only: the post-write read hit the stale line.
        assert r.stats.procs[1].read_misses == 1
        # The reader recorded a pending notice for the line.
        assert m.stats.notices_sent >= 1

    def test_acquire_invalidates_noticed_line(self):
        m = Machine(cfg(2), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (WRITE, seg.base)
            yield (FENCE,)
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)
            yield (COMPUTE, 30000)         # let the notice arrive
            yield (ACQUIRE, 3)
            yield (RELEASE, 3)
            yield (READ, seg.base)         # must miss now
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.procs[1].read_misses == 2
        assert r.stats.procs[1].acquire_invalidations >= 1

    def test_multiple_concurrent_writers_no_stall(self):
        """Both CPUs write the same line without waiting for ownership."""
        m = Machine(cfg(2), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def prog(pid):
            yield (READ, seg.base + 8 * pid)
            yield (WRITE, seg.base + 8 * pid)
            yield (COMPUTE, 10000)
            yield (BARRIER, 0)

        r = run(m, [prog(0), prog(1)])
        d, block = dir_entry(m, seg.base)
        for p in r.stats.procs:
            assert p.wb_stall == 0

    def test_directory_weak_transition_and_recovery(self):
        m = Machine(cfg(2), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (READ, seg.base)
            yield (WRITE, seg.base)
            yield (COMPUTE, 20000)
            yield (BARRIER, 0)
            # After the barrier the other processor has relinquished.
            yield (BARRIER, 1)

        def reader(pid):
            yield (COMPUTE, 5000)
            yield (READ, seg.base)         # share a dirty block -> WEAK
            yield (COMPUTE, 15000)
            yield (BARRIER, 0)             # acquire: reader invalidates
            yield (BARRIER, 1)

        run(m, [writer(0), reader(1)])
        d, block = dir_entry(m, seg.base)
        # The reader relinquished at its barrier; with only the writer
        # left the block reverted to DIRTY (one writer, one sharer).
        assert d.state_of(block) in (DIRTY, SHARED, UNCACHED)
        assert d.state_of(block) != WEAK

    def test_lrc_never_forwards_reads(self):
        m = Machine(cfg(2), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (READ, seg.base)
            yield (WRITE, seg.base)
            yield (COMPUTE, 10000)
            yield (BARRIER, 0)

        def reader(pid):
            yield (COMPUTE, 5000)
            yield (READ, seg.base)  # dirty at writer: still 2-hop
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.three_hop_reads == 0
        assert r.traffic.count[MsgType.FORWARD] == 0

    def test_release_waits_for_write_through(self):
        """A fence may not complete before memory acknowledged the data."""
        m = Machine(cfg(1), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def prog(pid):
            yield (WRITE_RUN, seg.base, 32, 8)
            yield (FENCE,)

        r = run(m, [prog(0)])
        assert r.stats.write_throughs > 0
        assert r.stats.procs[0].sync_stall > 0

    def test_eviction_informs_home(self):
        m = Machine(cfg(1, cache_size=4 * 128), protocol="lrc")
        seg = m.space.alloc(8192, "d")

        def prog(pid):
            yield (READ_RUN, seg.base, 64, 128)  # 64 lines through 4 sets

        r = run(m, [prog(0)])
        assert r.traffic.count[MsgType.EVICT_NOTICE] > 0
        # Home directory forgot the evicted lines (bounded storage).
        d = m.nodes[0].directory

    def test_weak_flag_via_read_reply(self):
        """A reader of a weak block learns from the reply, not a notice."""
        m = Machine(cfg(3), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (READ, seg.base)
            yield (WRITE, seg.base)
            yield (COMPUTE, 30000)
            yield (BARRIER, 0)

        def reader1(pid):  # makes the block weak
            yield (COMPUTE, 5000)
            yield (READ, seg.base)
            yield (COMPUTE, 25000)
            yield (BARRIER, 0)

        def reader2(pid):  # joins a weak block
            yield (COMPUTE, 15000)
            yield (READ, seg.base)
            yield (COMPUTE, 15000)
            yield (BARRIER, 0)

        m_nodes = m.nodes
        run(m, [writer(0), reader1(1), reader2(2)])
        block = seg.base >> m.config.line_shift
        # Reader 2 was marked for invalidation via the reply (weak flag)
        # or already invalidated at the final barrier.
        # Either way the run completed; the notice count stays at the
        # single writer-transition notice.


class TestERCMechanisms:
    def test_eager_invalidation_on_write(self):
        """A write invalidates remote sharers immediately."""
        m = Machine(cfg(2), protocol="erc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (READ, seg.base)
            yield (WRITE, seg.base)
            yield (COMPUTE, 20000)
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)
            yield (COMPUTE, 20000)
            yield (READ, seg.base)     # MISSES: eagerly invalidated
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.eager_invalidations >= 1
        assert r.stats.procs[1].read_misses == 2

    def test_read_of_dirty_block_is_three_hop(self):
        m = Machine(cfg(2), protocol="erc")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (READ, seg.base)
            yield (WRITE, seg.base)
            yield (COMPUTE, 10000)
            yield (BARRIER, 0)

        def reader(pid):
            yield (COMPUTE, 5000)
            yield (READ, seg.base)
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.three_hop_reads == 1
        assert r.traffic.count[MsgType.FORWARD] == 1
        assert r.traffic.count[MsgType.OWNER_DATA] == 1

    def test_dirty_eviction_writes_back(self):
        m = Machine(cfg(1, cache_size=4 * 128), protocol="erc")
        seg = m.space.alloc(8192, "d")

        def prog(pid):
            # Write lines that conflict in the 4-set cache.
            yield (WRITE_RUN, seg.base, 16, 128 * 4)
            yield (FENCE,)

        r = run(m, [prog(0)])
        assert r.traffic.count[MsgType.WRITEBACK] > 0

    def test_write_buffer_full_stalls_cpu(self):
        # Writes to distinct remote lines that all need ownership faster
        # than the 4-entry buffer can drain them.
        m = Machine(cfg(2, wb_entries=2), protocol="erc")
        seg = m.space.alloc(1 << 15, "d")

        def writer(pid):
            yield (WRITE_RUN, seg.base, 32, 128)
            yield (BARRIER, 0)

        def idle(pid):
            yield (COMPUTE, 100)
            yield (BARRIER, 0)

        r = run(m, [writer(0), idle(1)])
        assert r.stats.procs[0].wb_stall > 0


class TestSCMechanisms:
    def test_writes_stall_cpu(self):
        m = Machine(cfg(1), protocol="sc")
        seg = m.space.alloc(4096, "d")

        def prog(pid):
            yield (WRITE, seg.base)

        r = run(m, [prog(0)])
        assert r.stats.procs[0].wb_stall > 0  # SC write-miss stall bucket

    def test_release_is_immediate(self):
        """All writes already performed: SC releases carry no fence wait
        beyond the one cycle of the lock message hand-off."""
        m = Machine(cfg(1), protocol="sc")
        seg = m.space.alloc(4096, "d")

        def prog(pid):
            yield (ACQUIRE, 0)
            yield (WRITE, seg.base)
            yield (RELEASE, 0)

        r = run(m, [prog(0)])
        assert r.stats.procs[0].sync_stall < 100


class TestSyncPrimitives:
    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_lock_mutual_exclusion_order(self, proto):
        """FIFO lock: earlier requester gets the lock first."""
        m = Machine(cfg(2), protocol=proto)
        seg = m.space.alloc(4096, "d")

        def first(pid):
            yield (ACQUIRE, 0)
            yield (COMPUTE, 5000)
            yield (RELEASE, 0)
            yield (BARRIER, 0)

        def second(pid):
            yield (COMPUTE, 1000)
            yield (ACQUIRE, 0)
            yield (RELEASE, 0)
            yield (BARRIER, 0)

        r = run(m, [first(0), second(1)])
        # The second processor waited roughly the first's hold time.
        assert r.stats.procs[1].sync_stall > 3000

    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_flag_orders_producer_consumer(self, proto):
        m = Machine(cfg(2), protocol=proto)

        def producer(pid):
            yield (COMPUTE, 8000)
            yield (SET_FLAG, 5)
            yield (BARRIER, 0)

        def consumer(pid):
            yield (WAIT_FLAG, 5)
            yield (BARRIER, 0)

        r = run(m, [producer(0), consumer(1)])
        assert r.stats.procs[1].sync_stall >= 7000

    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_flag_already_set_passes_quickly(self, proto):
        m = Machine(cfg(2), protocol=proto)

        def producer(pid):
            yield (SET_FLAG, 5)
            yield (BARRIER, 0)

        def consumer(pid):
            yield (COMPUTE, 20000)
            yield (WAIT_FLAG, 5)
            yield (BARRIER, 0)

        r = run(m, [producer(0), consumer(1)])
        assert r.stats.procs[1].sync_stall < 2000

    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_flag_traffic_uses_flag_message_types(self, proto):
        """Flag sync sends FLAG_SET/FLAG_WAIT/FLAG_GRANT, not LOCK_* —
        the per-type traffic counters must tell them apart."""
        m = Machine(cfg(2), protocol=proto)

        def producer(pid):
            yield (COMPUTE, 500)
            yield (SET_FLAG, 5)

        def consumer(pid):
            yield (WAIT_FLAG, 5)

        r = run(m, [producer(0), consumer(1)])
        c = r.traffic.count
        assert c[MsgType.FLAG_SET] == 1
        assert c[MsgType.FLAG_WAIT] == 1
        assert c[MsgType.FLAG_GRANT] == 1
        assert c[MsgType.LOCK_REQ] == 0
        assert c[MsgType.LOCK_GRANT] == 0
        assert c[MsgType.LOCK_RELEASE] == 0

    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_block_reason_naming(self, proto):
        from repro.core.processor import B_SYNC, B_WB

        m = Machine(cfg(2), protocol=proto)
        proc = m.nodes[0].proc
        assert proc.block_reason is None
        assert not proc.blocked_on_write_buffer
        proc.blocked = True
        proc._block_bucket = B_WB
        assert proc.block_reason == "write-buffer"
        assert proc.blocked_on_write_buffer
        proc._block_bucket = B_SYNC
        assert proc.block_reason == "sync"
        assert not proc.blocked_on_write_buffer
        proc.blocked = False

    def test_lock_ids_and_flag_ids_do_not_collide(self):
        m = Machine(cfg(2), protocol="lrc")

        def a(pid):
            yield (ACQUIRE, 7)
            yield (COMPUTE, 100)
            yield (RELEASE, 7)
            yield (SET_FLAG, 7)     # same numeric id, distinct namespace
            yield (BARRIER, 0)

        def b(pid):
            yield (WAIT_FLAG, 7)
            yield (ACQUIRE, 7)
            yield (RELEASE, 7)
            yield (BARRIER, 0)

        run(m, [a(0), b(1)])  # must not deadlock or corrupt state


class TestLazyExt:
    def test_notices_deferred_until_release(self):
        m = Machine(cfg(2), protocol="lrc-ext")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (WRITE, seg.base)
            yield (COMPUTE, 5000)
            # No release yet: the sharer must NOT have been notified.
            yield (COMPUTE, 10000)
            yield (FENCE,)              # now the deferred notice goes out
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)
            yield (COMPUTE, 12000)
            yield (ACQUIRE, 1)          # before writer's release: no inval
            yield (RELEASE, 1)
            yield (READ, seg.base)      # still a hit
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.procs[1].read_misses == 1
        assert r.stats.deferred_notices >= 1

    def test_eviction_posts_deferred_notice(self):
        m = Machine(cfg(1, cache_size=4 * 128), protocol="lrc-ext")
        seg = m.space.alloc(8192, "d")

        def prog(pid):
            yield (WRITE_RUN, seg.base, 16, 128 * 4)  # conflict evictions
            yield (FENCE,)

        r = run(m, [prog(0)])
        assert r.stats.deferred_notices > 0


class TestTardisMechanisms:
    def test_write_publishes_without_fanout(self):
        """The Tardis trade: a release bumps timestamps at the home
        instead of invalidating sharers — no notices, no acks, no
        eager invalidations."""
        m = Machine(cfg(2), protocol="tardis")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (WRITE, seg.base)
            yield (FENCE,)
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)
            yield (COMPUTE, 30000)
            yield (BARRIER, 0)

        run(m, [writer(0), reader(1)])
        assert m.stats.ts_bumps >= 1
        assert m.stats.notices_sent == 0
        assert m.stats.eager_invalidations == 0
        assert m.stats.writebacks == 0

    def test_reader_keeps_stale_line_until_acquire(self):
        """Same laziness as LRC, via leases: a concurrent write does not
        reach into the reader's cache; the copy only expires once the
        reader's clock passes its lease at a sync point."""
        m = Machine(cfg(2), protocol="tardis")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (COMPUTE, 5000)
            yield (WRITE, seg.base)
            yield (FENCE,)
            yield (BARRIER, 0)
            yield (BARRIER, 1)

        def reader(pid):
            yield (READ, seg.base)
            yield (COMPUTE, 30000)
            yield (READ, seg.base)        # still a hit: lease unexpired
            yield (BARRIER, 0)
            yield (READ, seg.base)        # barrier adopted writer's pts
            yield (BARRIER, 1)

        r = run(m, [writer(0), reader(1)])
        procs = r.stats.procs
        assert procs[1].read_misses == 2  # initial fill + post-barrier re-read
        assert procs[1].acquire_invalidations >= 1
        assert m.stats.lease_expirations >= 1

    def test_release_timestamp_flows_through_lock(self):
        """LOCK_RELEASE carries the releaser's clock; the next grantee
        adopts it, expiring every copy the releaser's epoch outdated."""
        m = Machine(cfg(2), protocol="tardis")
        seg = m.space.alloc(4096, "d")

        def writer(pid):
            yield (ACQUIRE, 0)
            yield (WRITE, seg.base)
            yield (RELEASE, 0)
            yield (BARRIER, 0)

        def reader(pid):
            yield (READ, seg.base)         # cache it early
            yield (COMPUTE, 30000)
            yield (ACQUIRE, 0)             # serialized after the release
            yield (READ, seg.base)         # must miss: lease < adopted pts
            yield (RELEASE, 0)
            yield (BARRIER, 0)

        r = run(m, [writer(0), reader(1)])
        assert r.stats.procs[1].read_misses == 2
        assert m.nodes[1].pts >= m.stats.ts_bumps  # clock adopted, not stale

    def test_eviction_is_silent(self):
        """No sharer bookkeeping at the home means nothing to tell it on
        eviction — unlike every other protocol here."""
        m = Machine(cfg(1, cache_size=4 * 128), protocol="tardis")
        seg = m.space.alloc(8192, "d")

        def prog(pid):
            yield (READ_RUN, seg.base, 16, 128 * 4)  # conflict evictions
            yield (FENCE,)

        r = run(m, [prog(0)])
        assert r.traffic.count[MsgType.EVICT_NOTICE] == 0
        assert r.traffic.count[MsgType.RELINQUISH] == 0


class TestWriteBufferCoalescing:
    """The contract the replay engine batches span tails on: a write to a
    block with a live write-buffer entry, in one of the protocol's
    ``wb_coalesce_states``, only adds its word to that entry."""

    COALESCE_STATES = {
        "sc": set(),
        "erc": {INVALID, RO},
        "lrc": {INVALID},
        "lrc-ext": {INVALID},
        "tardis": {INVALID},
    }

    @staticmethod
    def live_entry(proto, state):
        """A machine whose node 0 has a write-buffer entry ``{0}`` for a
        block, with the block's line then put in ``state``."""
        m = Machine(cfg(2), protocol=proto)
        seg = m.space.alloc(4096, "d")
        node = m.nodes[0]
        block = seg.base >> m.config.line_shift
        assert m.protocol.cpu_write(node, 0, block, 0) == 1
        assert node.wb.words[block] == {0}
        if state != INVALID:
            node.cache.install(block, state)
        return m, node, block

    @pytest.mark.parametrize("proto", sorted(COALESCE_STATES))
    def test_declared_states(self, proto):
        m = Machine(cfg(2), protocol=proto)
        assert m.protocol.wb_coalesce_states == self.COALESCE_STATES[proto]

    @pytest.mark.parametrize(
        "proto,state",
        [(p, st) for p, sts in sorted(COALESCE_STATES.items()) for st in sorted(sts)],
    )
    def test_write_only_coalesces(self, proto, state):
        m, node, block = self.live_entry(proto, state)
        sent = list(m.fabric.stats.count)
        busy = node.wb_head_busy
        assert m.protocol.cpu_write(node, 10, block, 1) == 11
        assert node.wb.words[block] == {0, 1}
        assert len(node.wb) == 1
        assert m.fabric.stats.count == sent
        assert node.wb_head_busy == busy
        assert node.cache.lookup(block) == state

    def test_lrc_read_only_line_upgrades_instead(self):
        m, node, block = self.live_entry("lrc", RO)
        sent = sum(m.fabric.stats.count)
        upgrades = node.stats.upgrade_misses
        assert m.protocol.cpu_write(node, 10, block, 1) == 11
        assert node.cache.lookup(block) == RW
        assert node.stats.upgrade_misses == upgrades + 1
        assert node.wb.words[block] == {0}
        assert node.cbuf.words[block] == {1}
        assert sum(m.fabric.stats.count) == sent + 1  # the write notice


class TestProtocolRegistry:
    def test_registry_is_the_single_name_table(self):
        from repro.protocols import REGISTRY, all_names

        assert all_names() == ("sc", "erc", "lrc", "lrc-ext", "tardis")
        for name, cls in REGISTRY.items():
            assert cls.name == name

    def test_make_protocol_rejects_unknown_name(self):
        from repro.protocols import make_protocol

        with pytest.raises(ValueError, match="unknown protocol"):
            make_protocol("mesi", machine=None)

    def test_spec_and_cli_resolve_through_registry(self, monkeypatch):
        from repro.harness.spec import ExperimentSpec
        from repro.protocols import REGISTRY, TardisProtocol

        # A monkeypatched registry entry is immediately a valid spec
        # protocol: there is no second name table to update.
        monkeypatch.setitem(REGISTRY, "tardis-2", TardisProtocol)
        spec = ExperimentSpec("gauss", "tardis-2", n_procs=2, small=True)
        assert spec.protocol == "tardis-2"
        with pytest.raises(ValueError, match="unknown protocol"):
            ExperimentSpec("gauss", "mesi", n_procs=2, small=True)
