"""Timing-semantics tests: processor accounting, memory, end-to-end costs."""

import pytest

from repro import Machine, SystemConfig
from repro.config import SystemConfig as SC
from repro.mem.dram import MemoryModule
from repro.program.ops import BARRIER, COMPUTE, READ, READ_RUN, WRITE


def cfg(n=2, **kw):
    kw.setdefault("cache_size", 32 * 128)
    return SystemConfig.scaled(n_procs=n, **kw)


class TestMemoryModule:
    def test_read_timing(self):
        m = MemoryModule(SC())
        assert m.read(0, 128) == 20 + 64

    def test_reads_contend_with_reads(self):
        m = MemoryModule(SC())
        assert m.read(0, 128) == 84
        assert m.read(10, 128) == 168

    def test_writes_do_not_block_reads(self):
        m = MemoryModule(SC())
        m.write(0, 128)
        assert m.read(0, 128) == 84  # separate write port

    def test_writes_contend_with_writes(self):
        m = MemoryModule(SC())
        assert m.write(0, 128) == 84
        assert m.write(0, 128) == 168

    def test_sub_line_write_timing(self):
        m = MemoryModule(SC())
        assert m.read(0, 128) == 84
        assert m.write(0, 16) == 20 + 8  # a partial write-through


class TestProcessorAccounting:
    def test_hit_costs_one_cycle(self):
        m = Machine(cfg(1), protocol="lrc")
        seg = m.space.alloc(4096, "d")

        def prog(pid):
            yield (READ, seg.base)          # miss
            yield (READ_RUN, seg.base, 100, 0)  # 100 hits on one word

        r = m.run([prog(0)])
        p = r.stats.procs[0]
        assert p.reads == 101
        # One cycle per hit; the missing reference's issue cycle is folded
        # into its read stall.
        assert p.cpu_cycles == 100

    def test_compute_exact(self):
        m = Machine(cfg(1), protocol="sc")

        def prog(pid):
            yield (COMPUTE, 12345)

        r = m.run([prog(0)])
        assert r.stats.procs[0].finish_time == 12345

    def test_compute_spans_many_quanta(self):
        m = Machine(cfg(1, quantum=10), protocol="sc")

        def prog(pid):
            yield (COMPUTE, 999)
            yield (COMPUTE, 1)

        r = m.run([prog(0)])
        assert r.stats.procs[0].finish_time == 1000

    def test_uncontended_local_fill_cost(self):
        """A read miss on a block homed at the reader costs memory + bus."""
        m = Machine(cfg(1), protocol="erc")
        seg = m.space.alloc(4096, "d", home=0)

        def prog(pid):
            yield (READ, seg.base)

        r = m.run([prog(0)])
        p = r.stats.procs[0]
        c = m.config
        # mem (20 + 64) + local bus fill (64); directory hides behind memory.
        assert p.read_stall == c.memory_time(c.line_size) + c.bus_time(c.line_size)

    def test_remote_fill_costs_more_than_local(self):
        results = {}
        for home in (0, 1):
            m = Machine(cfg(2), protocol="erc")
            seg = m.space.alloc(4096, "d", home=home)

            def reader(pid):
                yield (READ, seg.base)
                yield (BARRIER, 0)

            def idle(pid):
                yield (BARRIER, 0)

            r = m.run([reader(0), idle(1)])
            results[home] = r.stats.procs[0].read_stall
        assert results[1] > results[0]

    def test_quantum_does_not_change_single_proc_time(self):
        times = set()
        for q in (10, 100, 1000):
            m = Machine(cfg(1, quantum=q), protocol="lrc")
            seg = m.space.alloc(8192, "d")

            def prog(pid):
                yield (READ_RUN, seg.base, 256, 8)
                yield (COMPUTE, 500)

            r = m.run([prog(0)])
            times.add(r.exec_time)
        assert len(times) == 1

    @pytest.mark.parametrize("proto", ["sc", "erc", "lrc", "lrc-ext"])
    def test_buckets_partition_finish_time(self, proto):
        m = Machine(cfg(2), protocol=proto)
        seg = m.space.alloc(8192, "d")

        def prog(pid):
            yield (READ_RUN, seg.base, 64, 16)
            yield (WRITE, seg.base + pid * 8)
            yield (COMPUTE, 300)
            yield (BARRIER, 0)

        r = m.run([prog(p) for p in range(2)])
        for p in r.stats.procs:
            assert (
                p.cpu_cycles + p.read_stall + p.wb_stall + p.sync_stall
                == p.finish_time
            )


class TestFutureMachineTiming:
    def test_future_fill_is_costlier_in_cycles(self):
        base = SC.paper()
        fut = SC.future(cache_size=base.cache_size)
        # 256-byte lines at 4 B/cycle with a 40-cycle setup: the fill
        # takes longer despite doubled bandwidth.
        assert fut.memory_time(fut.line_size) > base.memory_time(base.line_size)

    def test_future_control_latency_unchanged(self):
        base, fut = SC.paper(), SC.future()
        assert fut.transit(0, 7, 0) == base.transit(0, 7, 0)
